package core

import (
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// basic wraps a stateless exchange function as a persistent Alltoaller.
type basic struct {
	name     string
	c        comm.Comm
	maxBlock int
	rec      *trace.Recorder
	st       opState
	run      func(c comm.Comm, send, recv comm.Buffer, block int) error
}

func (b *basic) Name() string { return b.name }

func (b *basic) Phases() map[trace.Phase]float64 { return b.rec.Snapshot() }

func (b *basic) Start(send, recv comm.Buffer, block int) (Handle, error) {
	if err := checkArgs(b.c, send, recv, block, b.maxBlock); err != nil {
		return nil, err
	}
	return b.st.Start(b.c, func() error {
		b.rec.Reset()
		timer := b.rec.Time(trace.PhaseTotal)
		err := b.run(b.c, send, recv, block)
		timer.Stop()
		return err
	})
}

func (b *basic) Alltoall(send, recv comm.Buffer, block int) error {
	h, err := b.Start(send, recv, block)
	if err != nil {
		return err
	}
	return h.Wait()
}

func newBasic(name string, c comm.Comm, maxBlock int,
	run func(c comm.Comm, send, recv comm.Buffer, block int) error) *basic {
	return &basic{name: name, c: c, maxBlock: maxBlock, rec: trace.NewRecorder(c.Now), run: run}
}

func newPairwise(c comm.Comm, maxBlock int, _ Options) (Alltoaller, error) {
	return newBasic("pairwise", c, maxBlock, flat(alltoallPairwise)), nil
}

func newNonblocking(c comm.Comm, maxBlock int, _ Options) (Alltoaller, error) {
	return newBasic("nonblocking", c, maxBlock, flat(alltoallNonblocking)), nil
}

// flat runs an inner exchange (see innerExchange.run) as the flat
// all-to-all: one block per peer.
func flat(x func(c comm.Comm, send, recv comm.Buffer, m, block int) error) func(c comm.Comm, send, recv comm.Buffer, block int) error {
	return func(c comm.Comm, send, recv comm.Buffer, block int) error { return x(c, send, recv, 1, block) }
}

func newBatched(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
	if o.BatchWindow < 1 {
		return nil, fmt.Errorf("core: batched window must be >= 1, got %d", o.BatchWindow)
	}
	w := o.BatchWindow
	run := func(c comm.Comm, send, recv comm.Buffer, block int) error {
		return alltoallBatched(c, send, recv, block, w)
	}
	return newBasic("batched", c, maxBlock, run), nil
}

// alltoallPairwise is Algorithm 1: p-1 disjoint Sendrecv steps. At step i,
// rank r sends to r+i and receives from r-i, so exactly one exchange is in
// flight per rank — minimal contention and matching cost, but a rank stalls
// whenever its step partner is late (the synchronization overhead the paper
// discusses). Each peer's m blocks land in recv through a view, in the
// inner exchanges' layout (see innerExchange.run).
func alltoallPairwise(c comm.Comm, send, recv comm.Buffer, m, block int) error {
	n, r, size := c.Size(), c.Rank(), m*block
	if err := c.Memcpy(recv.Blocks(r, n, m, block), send.Slice(r*size, size)); err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		sp := (r + i) % n
		rp := (r - i + n) % n
		if err := c.Sendrecv(
			send.Slice(sp*size, size), sp, tagAlltoall,
			recv.Blocks(rp, n, m, block), rp, tagAlltoall); err != nil {
			return fmt.Errorf("core: pairwise step %d (to %d, from %d): %w", i, sp, rp, err)
		}
	}
	return nil
}

// alltoallNonblocking is Algorithm 2: post every receive and send up
// front, then wait for all. Minimal synchronization, but at scale the
// matching queues grow to p-1 entries and the network sees p-1 concurrent
// flows per rank — the queue-search and contention overheads the paper
// attributes to this exchange. Receives land through per-peer views, as in
// alltoallPairwise.
func alltoallNonblocking(c comm.Comm, send, recv comm.Buffer, m, block int) error {
	n, r, size := c.Size(), c.Rank(), m*block
	reqs := make([]comm.Request, 0, 2*(n-1))
	for i := 1; i < n; i++ {
		sp := (r + i) % n
		rp := (r - i + n) % n
		rq, err := c.Irecv(recv.Blocks(rp, n, m, block), rp, tagAlltoall)
		if err != nil {
			return err
		}
		sq, err := c.Isend(send.Slice(sp*size, size), sp, tagAlltoall)
		if err != nil {
			return err
		}
		reqs = append(reqs, rq, sq)
	}
	if err := c.Memcpy(recv.Blocks(r, n, m, block), send.Slice(r*size, size)); err != nil {
		return err
	}
	return c.WaitAll(reqs)
}

// alltoallBatched is the related-work hybrid (Section 2.1): nonblocking
// exchanges issued in windows of w partners, bounding both the matching
// queue depth and the synchronization exposure.
func alltoallBatched(c comm.Comm, send, recv comm.Buffer, block int, w int) error {
	n, r := c.Size(), c.Rank()
	if err := c.Memcpy(recv.Slice(r*block, block), send.Slice(r*block, block)); err != nil {
		return err
	}
	reqs := make([]comm.Request, 0, 2*w)
	for base := 1; base < n; base += w {
		end := base + w
		if end > n {
			end = n
		}
		reqs = reqs[:0]
		for i := base; i < end; i++ {
			sp := (r + i) % n
			rp := (r - i + n) % n
			rq, err := c.Irecv(recv.Slice(rp*block, block), rp, tagAlltoall)
			if err != nil {
				return err
			}
			sq, err := c.Isend(send.Slice(sp*block, block), sp, tagAlltoall)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq, sq)
		}
		if err := c.WaitAll(reqs); err != nil {
			return fmt.Errorf("core: batched window at %d: %w", base, err)
		}
	}
	return nil
}
