package core

import (
	"bytes"
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/sched"
	"alltoallx/internal/trace"
)

// Schedule-backed alltoallv: the variable-count generators of
// internal/sched (sched.GenerateV) driven through the Alltoallver shell,
// registered as "sched:<generator>" so NewV, the tuned v-dispatcher and
// autotune sweeps can select them like any other v-algorithm.
//
// An alltoallv schedule is parameterized by the full p x p count matrix,
// which no single rank holds — each call starts with a counts allgather
// (control data, tagVSched), cross-checks the gathered matrix against
// this rank's recvCounts (the exchange deadlocks or corrupts under
// asymmetric declarations, so they are rejected up front), then compiles
// and statically verifies the schedule for that matrix. Compilation is
// memoized per instance: ML workloads re-issue the same count pattern
// for many steps, so the common case is one compile amortized over the
// epoch, with only the O(p) allgather per call. Payloads are packed into
// the schedule's canonical layout (send row-packed by destination, recv
// column-packed by source) around the executor run.

// tagVSched tags the per-call counts allgather of the sched-backed
// alltoallv (distinct from the other v-algorithm control tags).
const tagVSched = 331

// vSchedMaxRanks caps the worlds the sched-backed alltoallv accepts:
// the count matrix is inherently O(p^2) state, the assembled schedule is
// compiled and verified whole, and the per-call allgather is O(p)
// messages — the same ceiling as the fixed-count whole-world path.
const vSchedMaxRanks = schedSliceRanks

type vSched struct {
	*basicV
	gen string // sched.GenerateV generator name

	rowBuf, matBuf     comm.Buffer // counts control data: always real
	packSend, packRecv comm.Buffer // payload staging in canonical layout

	// Compilation memo: the last count matrix (encoded) and its verified
	// executor.
	lastCounts []byte
	ex         *sched.Exec
}

func newVSched(gen string) vFactory {
	return func(c comm.Comm, maxTotal int, _ Options) (Alltoallver, error) {
		p := c.Size()
		if p > vSchedMaxRanks {
			return nil, fmt.Errorf("core: sched:%s compiles the assembled alltoallv schedule; worlds above %d ranks are not supported (have %d)",
				gen, vSchedMaxRanks, p)
		}
		v := &vSched{gen: gen, rowBuf: comm.Alloc(p * 8), matBuf: comm.Alloc(p * p * 8)}
		v.basicV = newBasicV(SchedPrefix+gen, c, maxTotal, v.run)
		return v, nil
	}
}

// gatherCounts runs the direct allgather of every rank's sendCounts row
// into matBuf (control data, real buffers even under virtual payloads).
func (v *vSched) gatherCounts(sendCounts []int) error {
	p, r := v.c.Size(), v.c.Rank()
	for i, n := range sendCounts {
		putLeI64(v.rowBuf.Bytes()[i*8:], int64(n))
	}
	row := p * 8
	reqs := make([]comm.Request, 0, 2*(p-1))
	for s := 0; s < p; s++ {
		if s == r {
			continue
		}
		rq, err := v.c.Irecv(v.matBuf.Slice(s*row, row), s, tagVSched)
		if err != nil {
			return err
		}
		reqs = append(reqs, rq)
	}
	for d := 0; d < p; d++ {
		if d == r {
			continue
		}
		sq, err := v.c.Isend(v.rowBuf, d, tagVSched)
		if err != nil {
			return err
		}
		reqs = append(reqs, sq)
	}
	if err := v.c.Memcpy(v.matBuf.Slice(r*row, row), v.rowBuf); err != nil {
		return err
	}
	return v.c.WaitAll(reqs)
}

// compile returns the verified executor for the gathered count matrix,
// reusing the previous call's when the counts are unchanged.
func (v *vSched) compile(recvCounts []int) (*sched.Exec, error) {
	p, r := v.c.Size(), v.c.Rank()
	enc := v.matBuf.Bytes()
	if v.ex != nil && bytes.Equal(enc, v.lastCounts) {
		return v.ex, nil
	}
	counts := make([][]int, p)
	for s := 0; s < p; s++ {
		counts[s] = make([]int, p)
		for d := 0; d < p; d++ {
			counts[s][d] = int(leI64(enc[(s*p+d)*8:]))
		}
	}
	// Asymmetric declarations (rank s says it sends n bytes here, this
	// rank expects a different count from s) would deadlock or corrupt
	// the exchange: reject before compiling.
	for s := 0; s < p; s++ {
		if counts[s][r] != recvCounts[s] {
			return nil, fmt.Errorf("core: %s alltoallv counts are asymmetric: rank %d declares %d bytes for this rank, local recvCounts[%d] is %d",
				v.name, s, counts[s][r], s, recvCounts[s])
		}
	}
	s, err := sched.GenerateV(v.gen, counts)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", v.name, err)
	}
	if err := sched.Verify(s); err != nil {
		return nil, fmt.Errorf("core: %s failed static verification: %w", v.name, err)
	}
	v.lastCounts = append(v.lastCounts[:0], enc...)
	v.ex = sched.NewExec(s)
	return v.ex, nil
}

func (v *vSched) run(c comm.Comm, send comm.Buffer, sendCounts, sdispls []int,
	recv comm.Buffer, recvCounts, rdispls []int) error {
	if err := v.gatherCounts(sendCounts); err != nil {
		return fmt.Errorf("core: %s alltoallv counts allgather: %w", v.name, err)
	}
	ex, err := v.compile(recvCounts)
	if err != nil {
		return err
	}
	packSend := ensureStage(&v.packSend, send, v.maxTotal)
	packRecv := ensureStage(&v.packRecv, recv, v.maxTotal)
	stop := v.rec.Time(trace.PhaseRepack)
	_, err = packByCounts(c, packSend, send, sendCounts, sdispls)
	stop()
	if err != nil {
		return err
	}
	if err := ex.Run(c, packSend, packRecv, 1, v.rec); err != nil {
		return err
	}
	stop = v.rec.Time(trace.PhaseRepack)
	err = unpackByCounts(c, recv, recvCounts, rdispls, packRecv)
	stop()
	return err
}

func init() {
	for _, g := range sched.VGenerators() {
		vRegistry[SchedPrefix+g] = newVSched(g)
	}
}
