// Package runtime is a live, in-process message-passing runtime: the
// repository's stand-in for an MPI library (the paper's substrate, which Go
// lacks). Every rank is a goroutine; point-to-point messages are matched on
// (communicator context, source, tag) with posted/unexpected queues, an
// eager protocol for small messages and a rendezvous protocol for large
// ones — the same structure real MPI implementations use and the structure
// whose costs (matching, synchronization, buffering) the paper's algorithms
// are designed around.
//
// An eager message is copied once and allocates nothing. The sender locks
// the destination rank's mailbox: a matching posted receive gets the bytes
// straight from the send buffer; otherwise they are copied, still under
// the lock, into a bounce buffer from that mailbox's free list (one list
// per power-of-two size class up to EagerMax), and the receive that takes
// the message copies them out and returns the buffer. Either way the send
// is complete when Isend returns, which hands back one shared, completed
// request. A rendezvous message is copied once too, straight from the
// sender's buffer once the receive is posted. The blocking calls (Send,
// Recv, Sendrecv) wait on requests recycled through their rank's free
// list, so they allocate nothing; the requests of Isend (rendezvous) and
// Irecv escape to the caller and are allocated.
//
// The runtime is used for every correctness test and for wall-clock
// micro-benchmarks on the machine at hand. Performance reproduction of the
// paper's cluster-scale figures uses internal/sim instead; both implement
// comm.Comm, so algorithms are written once.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alltoallx/internal/comm"
	"alltoallx/internal/topo"
)

// DefaultEagerMax is the default eager/rendezvous protocol switch point in
// bytes. A message at or below it is copied once, into the posted receive
// or a recycled bounce buffer, before the send returns; a larger message
// synchronizes with the receiver, which copies it straight from the
// sender's buffer.
const DefaultEagerMax = 1 << 13

// Config configures a world of ranks.
type Config struct {
	// Ranks is the number of ranks. Required if Mapping is nil.
	Ranks int
	// Mapping optionally attaches a topology (nodes x ppn); when set it
	// also defines Ranks = Mapping.Size().
	Mapping *topo.Mapping
	// EagerMax overrides the eager protocol threshold; 0 means
	// DefaultEagerMax.
	EagerMax int
}

// Run spawns one goroutine per rank, calls body with that rank's world
// communicator, and waits for all ranks. It returns the joined errors of
// every failing rank. A panicking rank is converted into an error so one
// bad rank cannot take down the test process silently.
func Run(cfg Config, body func(c comm.Comm) error) error {
	w, err := newWorld(cfg)
	if err != nil {
		return err
	}
	n := w.size
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("runtime: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = body(w.comm(rank))
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// world is the shared state of one rank set.
type world struct {
	size     int
	mapping  *topo.Mapping
	eagerMax int
	start    time.Time
	ctx      atomic.Int64 // next communicator context id
	boxes    []mailbox    // one per world rank
	worldSh  *commShared
}

func newWorld(cfg Config) (*world, error) {
	n := cfg.Ranks
	if cfg.Mapping != nil {
		if n != 0 && n != cfg.Mapping.Size() {
			return nil, fmt.Errorf("runtime: Ranks %d conflicts with Mapping size %d", n, cfg.Mapping.Size())
		}
		n = cfg.Mapping.Size()
	}
	if n <= 0 {
		return nil, fmt.Errorf("runtime: world needs at least 1 rank, got %d", n)
	}
	eager := cfg.EagerMax
	if eager <= 0 {
		eager = DefaultEagerMax
	}
	w := &world{size: n, mapping: cfg.Mapping, eagerMax: eager, start: time.Now()}
	w.boxes = make([]mailbox, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(eager)
	}
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	w.worldSh = newCommShared(w, w.ctx.Add(1), ranks)
	return w, nil
}

func (w *world) comm(rank int) *Comm {
	return &Comm{sh: w.worldSh, rank: rank}
}

// commShared is the per-communicator state shared by all its ranks.
type commShared struct {
	w      *world
	id     int64 // context id: isolates matching across communicators
	ranks  []int // comm rank -> world rank
	bar    barrier
	splits splitTable
}

func newCommShared(w *world, id int64, ranks []int) *commShared {
	sh := &commShared{w: w, id: id, ranks: ranks}
	sh.bar.init(len(ranks))
	sh.splits.init()
	return sh
}

// Comm is one rank's handle on a communicator. It implements comm.Comm.
type Comm struct {
	sh       *commShared
	rank     int
	splitSeq int // per-rank collective call counter for Split matching
}

var (
	_ comm.Comm         = (*Comm)(nil)
	_ comm.AsyncStarter = (*Comm)(nil)
)

// Rank returns this process's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.sh.ranks) }

// Topo returns the world topology mapping for the world communicator, nil
// for sub-communicators.
func (c *Comm) Topo() *topo.Mapping {
	if c.sh == c.sh.w.worldSh {
		return c.sh.w.mapping
	}
	return nil
}

// Now returns seconds since the world started (monotonic wall clock).
func (c *Comm) Now() float64 { return time.Since(c.sh.w.start).Seconds() }

// Memcpy copies src to dst, which must be as long.
func (c *Comm) Memcpy(dst, src comm.Buffer) error {
	if dst.Len() != src.Len() {
		return fmt.Errorf("runtime: Memcpy of %d bytes into a %d-byte buffer", src.Len(), dst.Len())
	}
	_, err := comm.CopyData(dst, src)
	return err
}

// ChargeCopy is a no-op on the live runtime: real copies already cost real
// time.
func (c *Comm) ChargeCopy(bytes, blocks int) error {
	if bytes < 0 || blocks < 0 {
		return fmt.Errorf("runtime: ChargeCopy(%d, %d): negative argument", bytes, blocks)
	}
	return nil
}

// Compute is a validating no-op on the live runtime: wall-clock compute is
// real Go code executed by the caller, so there is nothing to charge and
// nothing sleeps. The method exists so a program body written against
// comm.Comm can be overlap-modeled unchanged in the simulator.
func (c *Comm) Compute(seconds float64) error {
	if seconds < 0 {
		return fmt.Errorf("runtime: Compute(%g): negative duration", seconds)
	}
	return nil
}

// asyncOp is the live runtime's comm.Async: one driver goroutine runs the
// body; done closes when it finishes.
type asyncOp struct {
	done chan struct{}
	err  error
}

// Join blocks until the driver goroutine finishes.
func (a *asyncOp) Join() error {
	<-a.done
	return a.err
}

// TryJoin polls the driver goroutine without blocking.
func (a *asyncOp) TryJoin() (bool, error) {
	select {
	case <-a.done:
		return true, a.err
	default:
		return false, nil
	}
}

// StartAsync spawns a driver goroutine for a started collective body — the
// live runtime's comm.AsyncStarter. The mailbox, barrier and split tables
// are all mutex-protected, so the driver may exchange messages while the
// rank's main goroutine computes; a panicking body is converted into an
// error rather than taking down the process.
func (c *Comm) StartAsync(body func() error) comm.Async {
	a := &asyncOp{done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer func() {
			if p := recover(); p != nil {
				a.err = fmt.Errorf("runtime: started operation panicked: %v", p)
			}
		}()
		a.err = body()
	}()
	return a
}

// Send blocks until the message is buffered (eager) or received
// (rendezvous). It allocates nothing: an eager send is complete when it
// is delivered, and a rendezvous one waits on a pooled request.
func (c *Comm) Send(b comm.Buffer, dst, tag int) error {
	req, err := c.isend(b, dst, tag, true)
	if err != nil {
		return err
	}
	return req.wait()
}

// Recv blocks until a matching message has been copied into b. It waits
// on a pooled request, so it allocates nothing.
func (c *Comm) Recv(b comm.Buffer, src, tag int) error {
	req, err := c.irecv(b, src, tag, true)
	if err != nil {
		return err
	}
	return req.wait()
}

// Isend starts a nonblocking send.
func (c *Comm) Isend(b comm.Buffer, dst, tag int) (comm.Request, error) {
	req, err := c.isend(b, dst, tag, false)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// isend starts a send. A rendezvous send's request is pooled if the
// caller blocks on it, waiting on it once.
func (c *Comm) isend(b comm.Buffer, dst, tag int, pooled bool) (*request, error) {
	if err := comm.CheckPeer(dst, c.Size()); err != nil {
		return nil, err
	}
	if err := comm.CheckTag(tag); err != nil {
		return nil, err
	}
	wdst := c.sh.ranks[dst]
	box := &c.sh.w.boxes[wdst]
	if b.Len() <= c.sh.w.eagerMax {
		// Eager: the payload is copied out of the user buffer — into a
		// posted receive or a bounce buffer — before deliverEager returns,
		// so the send is already complete.
		box.deliverEager(c.sh.id, c.rank, tag, b)
		return eagerDone, nil
	}
	// Rendezvous: the request completes when the receiver has copied the
	// payload straight out of the user buffer (single copy, synchronizing).
	req := c.newRequest(pooled)
	box.deliverRendezvous(c.sh.id, c.rank, tag, b, req)
	return req, nil
}

// Irecv starts a nonblocking receive.
func (c *Comm) Irecv(b comm.Buffer, src, tag int) (comm.Request, error) {
	req, err := c.irecv(b, src, tag, false)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// irecv posts a receive. Its request is pooled if the caller blocks on
// it, waiting on it once.
func (c *Comm) irecv(b comm.Buffer, src, tag int, pooled bool) (*request, error) {
	if err := comm.CheckPeer(src, c.Size()); err != nil {
		return nil, err
	}
	if err := comm.CheckTag(tag); err != nil {
		return nil, err
	}
	me := c.sh.ranks[c.rank]
	box := &c.sh.w.boxes[me]
	req := c.newRequest(pooled)
	box.postRecv(c.sh.id, src, tag, b, req)
	return req, nil
}

// newRequest returns an escaping request for Isend or Irecv or, for a
// blocking call, a pooled one from this rank's free list.
func (c *Comm) newRequest(pooled bool) *request {
	if !pooled {
		return &request{done: make(chan struct{})}
	}
	free := c.sh.w.boxes[c.sh.ranks[c.rank]].reqs
	select {
	case r := <-free:
		return r
	default:
		return &request{done: make(chan struct{}, 1), free: free}
	}
}

// Wait blocks until the request completes and returns its error.
func (c *Comm) Wait(r comm.Request) error {
	if r == nil {
		return nil
	}
	req, ok := r.(*request)
	if !ok {
		return fmt.Errorf("runtime: foreign request type %T", r)
	}
	return req.wait()
}

// WaitAll blocks until all requests complete, returning their joined errors.
func (c *Comm) WaitAll(rs []comm.Request) error {
	var errs []error
	for _, r := range rs {
		if err := c.Wait(r); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Sendrecv posts the receive first, then sends, so that symmetric exchanges
// (everyone calls Sendrecv at once, as pairwise exchange does) cannot
// deadlock even in rendezvous mode. A receive left posted by a failed call
// would take the peer's next message on its tag and write it into rb after
// the call returned, so the send's peer and tag are checked before the
// receive is posted, and a send that fails at run time (a truncated
// rendezvous send) still waits for the receive. The receive's error is
// returned if it has one, otherwise the send's.
func (c *Comm) Sendrecv(sb comm.Buffer, dst, stag int, rb comm.Buffer, src, rtag int) error {
	if err := comm.CheckPeer(dst, c.Size()); err != nil {
		return err
	}
	if err := comm.CheckTag(stag); err != nil {
		return err
	}
	rreq, err := c.irecv(rb, src, rtag, true)
	if err != nil {
		return err
	}
	serr := c.Send(sb, dst, stag)
	if err := rreq.wait(); err != nil {
		return err
	}
	return serr
}

// Barrier blocks until all ranks of the communicator have entered.
func (c *Comm) Barrier() error {
	c.sh.bar.await()
	return nil
}

// Split partitions the communicator by color, ordering new ranks by
// (key, parent rank). Ranks passing a negative color receive a nil
// communicator (like MPI_UNDEFINED). Split is collective and must be called
// in the same sequence by all parent ranks.
func (c *Comm) Split(color, key int) (comm.Comm, error) {
	seq := c.splitSeq
	c.splitSeq++
	res := c.sh.splits.gather(c.sh, seq, c.rank, color, key)
	if res == nil {
		return nil, nil
	}
	return &Comm{sh: res.sh, rank: res.rank}, nil
}
