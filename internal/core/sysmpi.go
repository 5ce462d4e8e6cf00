package core

import (
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// systemMPI emulates a vendor MPI_Alltoall: a three-tier size-thresholded
// selection mirroring Open MPI's tuned decision function — Bruck for small
// blocks, a linear nonblocking exchange for mid sizes, pairwise for large
// (Cray MPICH on Tuolomne instead uses an aggregating node-aware path and
// tuned overheads). The vendor overhead tuning (SysProfile.OverheadScale)
// is applied by the simulation harness, not here — this type only
// reproduces the algorithm selection.
type systemMPI struct {
	c        comm.Comm
	small    Alltoaller
	mid      Alltoaller
	large    Alltoaller
	smallMax int
	midMax   int
	maxBlock int
	st       OpState
	last     Alltoaller
}

func newSystemMPI(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
	prof := o.Sys
	if prof.SmallAlgo == "" || prof.MidAlgo == "" || prof.LargeAlgo == "" {
		return nil, fmt.Errorf("core: system-mpi requires Options.Sys with Small/Mid/LargeAlgo (got %+v)", prof)
	}
	if prof.SmallMax < 0 || prof.MidMax < prof.SmallMax {
		return nil, fmt.Errorf("core: system-mpi thresholds out of order: small %d, mid %d", prof.SmallMax, prof.MidMax)
	}
	inner := Options{Inner: o.Inner, PPL: o.PPL, PPG: o.PPG, BatchWindow: o.BatchWindow}
	build := func(name string) (Alltoaller, error) {
		a, err := New(name, c, maxBlock, inner)
		if err != nil {
			return nil, fmt.Errorf("core: system-mpi path %q: %w", name, err)
		}
		return a, nil
	}
	small, err := build(prof.SmallAlgo)
	if err != nil {
		return nil, err
	}
	mid := small
	if prof.MidAlgo != prof.SmallAlgo {
		if mid, err = build(prof.MidAlgo); err != nil {
			return nil, err
		}
	}
	large := mid
	if prof.LargeAlgo != prof.MidAlgo {
		if large, err = build(prof.LargeAlgo); err != nil {
			return nil, err
		}
	}
	return &systemMPI{
		c: c, small: small, mid: mid, large: large,
		smallMax: prof.SmallMax, midMax: prof.MidMax, maxBlock: maxBlock,
	}, nil
}

func (s *systemMPI) Name() string { return "system-mpi" }

func (s *systemMPI) Phases() map[trace.Phase]float64 {
	if s.last == nil {
		return nil
	}
	return s.last.Phases()
}

// Start selects the size-thresholded path (eagerly — selection is local
// arithmetic) and launches its exchange off the critical path. The
// one-outstanding-handle rule is enforced at this level, so alternating
// block sizes cannot put two inner paths in flight at once.
func (s *systemMPI) Start(send, recv comm.Buffer, block int) (Handle, error) {
	if err := checkArgs(s.c, send, recv, block, s.maxBlock); err != nil {
		return nil, err
	}
	switch {
	case block <= s.smallMax:
		s.last = s.small
	case block <= s.midMax:
		s.last = s.mid
	default:
		s.last = s.large
	}
	inst := s.last
	return s.st.Start(s.c, func() error { return inst.Alltoall(send, recv, block) })
}

func (s *systemMPI) Alltoall(send, recv comm.Buffer, block int) error {
	h, err := s.Start(send, recv, block)
	if err != nil {
		return err
	}
	return h.Wait()
}
