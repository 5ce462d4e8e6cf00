package core

import (
	"fmt"
	"sort"

	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// Alltoallver is a persistent variable-sized all-to-all operation bound to
// one rank of a communicator — the MPI_Alltoallv counterpart of
// Alltoaller, with the same lifecycle: NewV is a collective constructor
// that performs all communicator splitting and staging-buffer setup, the
// instance may be reused for any number of exchanges whose per-rank totals
// stay within the maxTotal fixed at construction, and one rank drives one
// instance (not safe for concurrent use by multiple goroutines).
type Alltoallver interface {
	// Name returns the algorithm's registry name.
	Name() string
	// Alltoallv exchanges variable-sized blocks: this rank sends
	// sendCounts[i] bytes starting at sdispls[i] to rank i and receives
	// recvCounts[j] bytes from rank j into rdispls[j]. Counts must be
	// globally consistent (recvCounts[j] here equals sendCounts of this
	// rank on j) and each rank's send and receive totals must not exceed
	// the maxTotal fixed at construction. It is exactly Start followed
	// by Wait.
	Alltoallv(send comm.Buffer, sendCounts, sdispls []int,
		recv comm.Buffer, recvCounts, rdispls []int) error
	// Start launches the same exchange off the caller's critical path
	// and returns its handle. The buffers and count/displacement slices
	// belong to the exchange until the handle completes; at most one
	// exchange per operation may be outstanding.
	Start(send comm.Buffer, sendCounts, sdispls []int,
		recv comm.Buffer, recvCounts, rdispls []int) (Handle, error)
	// Phases returns this rank's per-phase timings for the last
	// completed exchange (empty for algorithms without internal phases).
	// The returned map is the caller's copy: mutating it never affects
	// the operation's timing state. It must not be called while an
	// exchange is outstanding.
	Phases() map[trace.Phase]float64
}

// vFactory builds a v-algorithm instance; maxTotal is the largest total
// byte count any single rank sends (or receives) in one exchange —
// leader-aggregating algorithms size their staging buffers from it.
type vFactory func(c comm.Comm, maxTotal int, o Options) (Alltoallver, error)

var vRegistry = map[string]vFactory{
	"pairwise":    newVPairwise,
	"nonblocking": newVNonblocking,
	"node-aware": func(c comm.Comm, maxTotal int, o Options) (Alltoallver, error) {
		return newVLeadered(c, maxTotal, o, true)
	},
	"locality-aware": func(c comm.Comm, maxTotal int, o Options) (Alltoallver, error) {
		return newVLeadered(c, maxTotal, o, false)
	},
}

// init registers the tuned v-dispatcher separately: its factory calls NewV
// at dispatch time, which would otherwise form an initialization cycle
// with the registry.
func init() { vRegistry[algoTuned] = newTunedV }

// NamesV returns all registered alltoallv algorithm names, sorted.
func NamesV() []string {
	names := make([]string, 0, len(vRegistry))
	for n := range vRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewV constructs a persistent alltoallv of the named algorithm on c, able
// to exchange up to maxTotal bytes per rank per direction. It is
// collective over c (node-aware algorithms split communicators during
// construction), and maxTotal — the largest send or receive total of ANY
// rank, not just this one — must be passed identically by every rank:
// leader-aggregating algorithms size their staging buffers from it.
func NewV(name string, c comm.Comm, maxTotal int, o Options) (Alltoallver, error) {
	f, ok := vRegistry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown alltoallv algorithm %q (have %v)", name, NamesV())
	}
	if c == nil {
		return nil, errNilComm
	}
	if maxTotal <= 0 {
		return nil, fmt.Errorf("core: maxTotal must be positive, got %d", maxTotal)
	}
	return f(c, maxTotal, o.withDefaults())
}

// basicV wraps a stateless v-exchange function as a persistent
// Alltoallver, adding argument validation, the maxTotal ceiling and phase
// timing.
type basicV struct {
	name     string
	c        comm.Comm
	maxTotal int
	rec      *trace.Recorder
	st       opState
	run      func(c comm.Comm, send comm.Buffer, sendCounts, sdispls []int,
		recv comm.Buffer, recvCounts, rdispls []int) error
}

func (b *basicV) Name() string { return b.name }

func (b *basicV) Phases() map[trace.Phase]float64 { return b.rec.Snapshot() }

func (b *basicV) Start(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) (Handle, error) {
	if err := checkVCall(b.c, b.maxTotal, send, sendCounts, sdispls, recv, recvCounts, rdispls); err != nil {
		return nil, err
	}
	return b.st.Start(b.c, func() error {
		b.rec.Reset()
		timer := b.rec.Time(trace.PhaseTotal)
		err := b.run(b.c, send, sendCounts, sdispls, recv, recvCounts, rdispls)
		timer.Stop()
		return err
	})
}

func (b *basicV) Alltoallv(send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	h, err := b.Start(send, sendCounts, sdispls, recv, recvCounts, rdispls)
	if err != nil {
		return err
	}
	return h.Wait()
}

func newBasicV(name string, c comm.Comm, maxTotal int,
	run func(c comm.Comm, send comm.Buffer, sendCounts, sdispls []int,
		recv comm.Buffer, recvCounts, rdispls []int) error) *basicV {
	return &basicV{name: name, c: c, maxTotal: maxTotal, rec: trace.NewRecorder(c.Now), run: run}
}

func newVPairwise(c comm.Comm, maxTotal int, _ Options) (Alltoallver, error) {
	return newBasicV("pairwise", c, maxTotal, alltoallvPairwise), nil
}

func newVNonblocking(c comm.Comm, maxTotal int, _ Options) (Alltoallver, error) {
	return newBasicV("nonblocking", c, maxTotal, alltoallvNonblocking), nil
}

// alltoallvPairwise is the variable-sized analogue of Algorithm 1: rank r
// sends sendCounts[i] bytes at sdispls[i] to rank i and receives
// recvCounts[j] bytes from rank j into rdispls[j], in p-1 disjoint
// Sendrecv steps, so exactly one exchange is in flight per rank.
func alltoallvPairwise(c comm.Comm, send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	n, r := c.Size(), c.Rank()
	if sendCounts[r] != recvCounts[r] {
		return fmt.Errorf("core: alltoallv self counts differ: send %d, recv %d", sendCounts[r], recvCounts[r])
	}
	if err := c.Memcpy(
		recv.Slice(rdispls[r], recvCounts[r]),
		send.Slice(sdispls[r], sendCounts[r])); err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		sp := (r + i) % n
		rp := (r - i + n) % n
		if err := c.Sendrecv(
			send.Slice(sdispls[sp], sendCounts[sp]), sp, tagAlltoall,
			recv.Slice(rdispls[rp], recvCounts[rp]), rp, tagAlltoall); err != nil {
			return fmt.Errorf("core: alltoallv step %d (to %d, from %d): %w", i, sp, rp, err)
		}
	}
	return nil
}

// alltoallvNonblocking is the variable-sized analogue of Algorithm 2:
// every exchange posted up front, one wait at the end.
func alltoallvNonblocking(c comm.Comm, send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	n, r := c.Size(), c.Rank()
	reqs := make([]comm.Request, 0, 2*(n-1))
	for i := 1; i < n; i++ {
		sp := (r + i) % n
		rp := (r - i + n) % n
		rq, err := c.Irecv(recv.Slice(rdispls[rp], recvCounts[rp]), rp, tagAlltoall)
		if err != nil {
			return err
		}
		sq, err := c.Isend(send.Slice(sdispls[sp], sendCounts[sp]), sp, tagAlltoall)
		if err != nil {
			return err
		}
		reqs = append(reqs, rq, sq)
	}
	if err := c.Memcpy(
		recv.Slice(rdispls[r], recvCounts[r]),
		send.Slice(sdispls[r], sendCounts[r])); err != nil {
		return err
	}
	return c.WaitAll(reqs)
}

// runInnerV dispatches an internal variable-sized exchange. Bruck has no
// alltoallv analogue here, so only pairwise and nonblocking are accepted
// (checked once at construction by the algorithms that use it).
func runInnerV(c comm.Comm, inner Inner, send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	if c.Size() == 1 {
		return c.Memcpy(recv.Slice(rdispls[0], recvCounts[0]), send.Slice(sdispls[0], sendCounts[0]))
	}
	switch inner {
	case InnerPairwise:
		return alltoallvPairwise(c, send, sendCounts, sdispls, recv, recvCounts, rdispls)
	case InnerNonblocking:
		return alltoallvNonblocking(c, send, sendCounts, sdispls, recv, recvCounts, rdispls)
	}
	return fmt.Errorf("core: inner exchange %q not supported for alltoallv (use %q or %q)",
		inner, InnerPairwise, InnerNonblocking)
}

// checkInnerV validates the inner-exchange choice for v-algorithms at
// construction time, so a bad option fails in NewV rather than on the
// first hot-path call.
func checkInnerV(inner Inner) error {
	if inner != InnerPairwise && inner != InnerNonblocking {
		return fmt.Errorf("core: Options.Inner=%q not supported for alltoallv (use %q or %q)",
			inner, InnerPairwise, InnerNonblocking)
	}
	return nil
}

// DisplsFromCounts builds contiguous displacements for the given per-peer
// byte counts, returning the displacement slice and the total length —
// the common packing helper for Alltoallv callers (an exclusive prefix
// sum, like computing MPI displacements from counts).
func DisplsFromCounts(counts []int) (displs []int, total int) {
	displs = make([]int, len(counts))
	for i, cnt := range counts {
		displs[i] = total
		total += cnt
	}
	return displs, total
}

// checkVCall validates both sides of a persistent Alltoallv invocation,
// including the maxTotal ceiling fixed at construction.
func checkVCall(c comm.Comm, maxTotal int, send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	if err := checkVArgs(c, send, sendCounts, sdispls, "send"); err != nil {
		return err
	}
	if err := checkVArgs(c, recv, recvCounts, rdispls, "recv"); err != nil {
		return err
	}
	if total := sumCounts(sendCounts); total > maxTotal {
		return fmt.Errorf("core: alltoallv send total %d exceeds maxTotal %d fixed at construction", total, maxTotal)
	}
	if total := sumCounts(recvCounts); total > maxTotal {
		return fmt.Errorf("core: alltoallv recv total %d exceeds maxTotal %d fixed at construction", total, maxTotal)
	}
	return nil
}

func sumCounts(counts []int) int {
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	return total
}

func checkVArgs(c comm.Comm, buf comm.Buffer, counts, displs []int, what string) error {
	n := c.Size()
	if len(counts) != n || len(displs) != n {
		return fmt.Errorf("core: alltoallv %s counts/displs length %d/%d, want %d", what, len(counts), len(displs), n)
	}
	for i := 0; i < n; i++ {
		if counts[i] < 0 {
			return fmt.Errorf("core: alltoallv %s count[%d] = %d negative", what, i, counts[i])
		}
		if displs[i] < 0 || displs[i]+counts[i] > buf.Len() {
			return fmt.Errorf("core: alltoallv %s segment %d [%d, %d) outside %d-byte buffer",
				what, i, displs[i], displs[i]+counts[i], buf.Len())
		}
	}
	return nil
}
