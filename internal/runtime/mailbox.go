package runtime

import (
	"math/bits"
	"sync"

	"alltoallx/internal/comm"
)

// request implements comm.Request. An escaping request (Isend's, Irecv's)
// signals completion by closing done, so it may be waited on or polled
// any number of times. A pooled one (a blocking call's) signals by one
// send on its one-slot done, is waited on exactly once and then goes back
// to free, its rank's free list: a closed channel cannot be re-armed. err
// carries any failure.
type request struct {
	done chan struct{}
	err  error
	free chan *request // nil for an escaping request
}

func (r *request) complete(err error) {
	r.err = err
	if r.free != nil {
		r.done <- struct{}{}
		return
	}
	close(r.done)
}

// wait blocks until the request completes and returns its error. A pooled
// request has then given its one signal and goes back to its free list,
// unless that is full.
func (r *request) wait() error {
	<-r.done
	err := r.err
	if r.free != nil {
		select {
		case r.free <- r:
		default:
		}
	}
	return err
}

// Pending reports whether the request is still in flight. Only escaping
// requests reach the caller, so polling never takes a pooled one's signal.
func (r *request) Pending() bool {
	select {
	case <-r.done:
		return false
	default:
		return true
	}
}

// eagerDone is the request every eager Isend returns. An eager send has
// made its one copy before Isend returns, so it is complete and cannot
// fail; all such requests are this one, closed and error-free.
var eagerDone = func() *request {
	r := &request{done: make(chan struct{})}
	r.complete(nil)
	return r
}()

// envelope identifies a message for matching.
type envelope struct {
	ctx int64
	src int
	tag int
}

// inMsg is a message sitting in the unexpected queue: eager when rdvReq
// is nil, else a rendezvous send waiting for its receive.
type inMsg struct {
	env    envelope
	buf    comm.Buffer // eager: the copy, in a bounce buffer, or virtual or empty; rendezvous: sender's live buffer
	rdvReq *request    // rendezvous: sender's request to complete on copy
}

// postedRecv is a receive waiting in the posted queue.
type postedRecv struct {
	env envelope
	buf comm.Buffer
	req *request
}

// mailbox holds one rank's matching state. Both queues are FIFO per
// envelope, which preserves MPI's non-overtaking ordering guarantee between
// a (source, tag, communicator) pair. bounces is the free list of the
// unexpected eager messages' bounce buffers, by power-of-two capacity
// class: bounces[c] holds buffers of capacity 1<<c. reqs is the free list
// of the rank's pooled requests; a channel needs no lock, so the rank's
// goroutines (its body and those running its started exchanges) share
// it.
type mailbox struct {
	mu         sync.Mutex
	unexpected []inMsg      // guarded by mu
	posted     []postedRecv // guarded by mu
	bounces    [][][]byte   // guarded by mu
	reqs       chan *request
}

// pooledRequests is the capacity of a rank's request free list: two
// goroutines each in a Sendrecv hold four pooled requests at once. More
// only allocate.
const pooledRequests = 4

// newMailbox returns a mailbox whose bounce free list has a class for
// every eager size up to eagerMax.
func newMailbox(eagerMax int) mailbox {
	return mailbox{
		bounces: make([][][]byte, bits.Len(uint(eagerMax))+1),
		reqs:    make(chan *request, pooledRequests),
	}
}

// deliverEager sends b, of at most EagerMax bytes, to this mailbox with
// one copy. A matching posted receive gets it straight from b; otherwise
// it is copied, under the lock, into a bounce buffer in the unexpected
// queue, so a receive posted meanwhile cannot pass it over. Either way
// the copy is made before deliverEager returns, and the sender may reuse
// b at once.
func (m *mailbox) deliverEager(ctx int64, src, tag int, b comm.Buffer) {
	env := envelope{ctx: ctx, src: src, tag: tag}
	m.mu.Lock()
	if i := m.findPostedLocked(env); i >= 0 {
		p := m.takePostedLocked(i)
		m.mu.Unlock()
		p.req.complete(land(p.buf, b))
		return
	}
	payload := comm.Virtual(b.Len())
	if !b.IsVirtual() && b.Len() > 0 {
		payload = comm.Wrap(m.bounceLocked(b.Len()))
		_, _ = comm.CopyData(payload, b) // cannot fail: payload is b.Len() bytes
	}
	m.unexpected = append(m.unexpected, inMsg{env: env, buf: payload})
	m.mu.Unlock()
}

// deliverRendezvous matches against the posted queue — copying directly
// from the sender buffer and completing both sides — or parks the send in
// the unexpected queue until a matching receive arrives.
func (m *mailbox) deliverRendezvous(ctx int64, src, tag int, sb comm.Buffer, sreq *request) {
	env := envelope{ctx: ctx, src: src, tag: tag}
	m.mu.Lock()
	if i := m.findPostedLocked(env); i >= 0 {
		p := m.takePostedLocked(i)
		m.mu.Unlock()
		completeRendezvous(p, sb, sreq)
		return
	}
	m.unexpected = append(m.unexpected, inMsg{env: env, buf: sb, rdvReq: sreq})
	m.mu.Unlock()
}

// postRecv matches the receive against the unexpected queue or appends it
// to the posted queue. An unexpected eager message is copied out of its
// bounce buffer, which goes back to the free list, under the lock (the
// copy is at most EagerMax bytes); a truncated one frees it too.
func (m *mailbox) postRecv(ctx int64, src, tag int, b comm.Buffer, req *request) {
	env := envelope{ctx: ctx, src: src, tag: tag}
	p := postedRecv{env: env, buf: b, req: req}
	m.mu.Lock()
	i := m.findUnexpectedLocked(env)
	if i < 0 {
		m.posted = append(m.posted, p)
		m.mu.Unlock()
		return
	}
	msg := m.takeUnexpectedLocked(i)
	if msg.rdvReq != nil {
		m.mu.Unlock()
		completeRendezvous(p, msg.buf, msg.rdvReq)
		return
	}
	err := land(b, msg.buf)
	m.releaseBounceLocked(msg.buf.Bytes())
	m.mu.Unlock()
	req.complete(err)
}

func (m *mailbox) findPostedLocked(env envelope) int {
	for i := range m.posted {
		if m.posted[i].env == env {
			return i
		}
	}
	return -1
}

func (m *mailbox) findUnexpectedLocked(env envelope) int {
	for i := range m.unexpected {
		if m.unexpected[i].env == env {
			return i
		}
	}
	return -1
}

func (m *mailbox) takePostedLocked(i int) postedRecv {
	p := m.posted[i]
	m.posted = append(m.posted[:i], m.posted[i+1:]...)
	return p
}

func (m *mailbox) takeUnexpectedLocked(i int) inMsg {
	msg := m.unexpected[i]
	m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
	return msg
}

// bounceLocked returns a bounce buffer of size bytes (0 < size <=
// EagerMax) from the free list. Buffers are kept by power-of-two capacity
// class, so any buffer of a class fits every size in it.
func (m *mailbox) bounceLocked(size int) []byte {
	c := bits.Len(uint(size - 1))
	free := m.bounces[c]
	if len(free) == 0 {
		return make([]byte, size, 1<<c)
	}
	m.bounces[c] = free[:len(free)-1]
	return free[len(free)-1][:size]
}

// releaseBounceLocked returns a bounce buffer (nil for a virtual or empty
// payload) to the free list.
func (m *mailbox) releaseBounceLocked(b []byte) {
	if b != nil {
		c := bits.Len(uint(cap(b) - 1))
		m.bounces[c] = append(m.bounces[c], b)
	}
}

// land copies a message (the sender's buffer or an eager bounce copy)
// into the front of a receive buffer, or reports ErrTruncate when the
// buffer is too short for it.
func land(dst, msg comm.Buffer) error {
	if _, err := comm.CopyData(dst, msg); err != nil {
		return comm.ErrTruncate
	}
	return nil
}

// completeRendezvous finishes a matched rendezvous transfer: it copies
// straight from the sender's buffer sb into the receive and completes
// both requests, or fails both with ErrTruncate when the receive is too
// short.
func completeRendezvous(p postedRecv, sb comm.Buffer, sreq *request) {
	err := land(p.buf, sb)
	sreq.complete(err)
	p.req.complete(err)
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
