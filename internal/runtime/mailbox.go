package runtime

import (
	"sync"

	"alltoallx/internal/comm"
)

// request implements comm.Request. done is closed exactly once when the
// operation completes; err carries any failure.
type request struct {
	done chan struct{}
	err  error
}

func newRequest() *request { return &request{done: make(chan struct{})} }

func (r *request) complete(err error) {
	r.err = err
	close(r.done)
}

// Pending reports whether the request is still in flight.
func (r *request) Pending() bool {
	select {
	case <-r.done:
		return false
	default:
		return true
	}
}

// envelope identifies a message for matching.
type envelope struct {
	ctx int64
	src int
	tag int
}

// inMsg is a message sitting in the unexpected queue.
type inMsg struct {
	env     envelope
	length  int
	payload []byte      // eager copy; nil if virtual payload
	rdvBuf  comm.Buffer // rendezvous: sender's live buffer
	rdvReq  *request    // rendezvous: sender's request to complete on copy
	eager   bool
}

// postedRecv is a receive waiting in the posted queue.
type postedRecv struct {
	env envelope
	buf comm.Buffer
	req *request
}

// mailbox holds one rank's matching state. Both queues are FIFO per
// envelope, which preserves MPI's non-overtaking ordering guarantee between
// a (source, tag, communicator) pair.
type mailbox struct {
	mu         sync.Mutex
	unexpected []inMsg
	posted     []postedRecv
}

// deliverEager matches the message against the posted queue or stores a
// buffered copy in the unexpected queue. The sender does not block.
func (m *mailbox) deliverEager(ctx int64, src, tag, length int, payload []byte) {
	env := envelope{ctx: ctx, src: src, tag: tag}
	m.mu.Lock()
	if i := m.findPosted(env); i >= 0 {
		p := m.takePosted(i)
		m.mu.Unlock()
		completeRecv(p, length, payload, comm.Buffer{}, nil)
		return
	}
	m.unexpected = append(m.unexpected, inMsg{env: env, length: length, payload: payload, eager: true})
	m.mu.Unlock()
}

// deliverRendezvous matches against the posted queue — copying directly
// from the sender buffer and completing both sides — or parks the send in
// the unexpected queue until a matching receive arrives.
func (m *mailbox) deliverRendezvous(ctx int64, src, tag int, sb comm.Buffer, sreq *request) {
	env := envelope{ctx: ctx, src: src, tag: tag}
	m.mu.Lock()
	if i := m.findPosted(env); i >= 0 {
		p := m.takePosted(i)
		m.mu.Unlock()
		completeRecv(p, sb.Len(), nil, sb, sreq)
		return
	}
	m.unexpected = append(m.unexpected, inMsg{env: env, length: sb.Len(), rdvBuf: sb, rdvReq: sreq})
	m.mu.Unlock()
}

// postRecv matches the receive against the unexpected queue or appends it
// to the posted queue.
func (m *mailbox) postRecv(ctx int64, src, tag int, b comm.Buffer, req *request) {
	env := envelope{ctx: ctx, src: src, tag: tag}
	m.mu.Lock()
	if i := m.findUnexpected(env); i >= 0 {
		msg := m.takeUnexpected(i)
		m.mu.Unlock()
		completeRecv(postedRecv{env: env, buf: b, req: req}, msg.length, msg.payload, msg.rdvBuf, msg.rdvReq)
		return
	}
	m.posted = append(m.posted, postedRecv{env: env, buf: b, req: req})
	m.mu.Unlock()
}

func (m *mailbox) findPosted(env envelope) int {
	for i := range m.posted {
		if m.posted[i].env == env {
			return i
		}
	}
	return -1
}

func (m *mailbox) findUnexpected(env envelope) int {
	for i := range m.unexpected {
		if m.unexpected[i].env == env {
			return i
		}
	}
	return -1
}

func (m *mailbox) takePosted(i int) postedRecv {
	p := m.posted[i]
	m.posted = append(m.posted[:i], m.posted[i+1:]...)
	return p
}

func (m *mailbox) takeUnexpected(i int) inMsg {
	msg := m.unexpected[i]
	m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
	return msg
}

// completeRecv finishes a matched receive: validates length, copies
// payload (from the eager copy or straight from the rendezvous sender
// buffer) and completes the receive request, plus the sender request for
// rendezvous transfers.
func completeRecv(p postedRecv, length int, payload []byte, rdvBuf comm.Buffer, rdvReq *request) {
	if length > p.buf.Len() {
		p.req.complete(comm.ErrTruncate)
		if rdvReq != nil {
			rdvReq.complete(comm.ErrTruncate)
		}
		return
	}
	dst := p.buf.Slice(0, length)
	if payload != nil && !dst.IsVirtual() {
		copy(dst.Bytes(), payload)
	}
	if rdvReq != nil {
		if _, err := comm.CopyData(dst, rdvBuf.Slice(0, length)); err != nil {
			p.req.complete(err)
			rdvReq.complete(err)
			return
		}
		rdvReq.complete(nil)
	}
	p.req.complete(nil)
}

// barrier is a reusable generation-counting barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond = sync.NewCond(&b.mu)
}

func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
