package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/sim"
	"alltoallx/internal/testutil"
	"alltoallx/internal/trace"
)

// simCell is one simulated SPMD job: every rank builds one algorithm, the
// ranks meet at a barrier, and reps exchanges are timed, separated by
// barriers.
type simCell struct {
	name  string // label in spans and errors
	algo  string
	opts  core.Options
	cc    sim.ClusterConfig
	block int
	reps  int // exchanges timed; 0 means 1
	// real moves payload bytes; every received byte is then checked after
	// the job ends. Otherwise buffers are virtual (lengths only).
	real bool
}

// cellResult is what one simCell run measured.
type cellResult struct {
	// Set-up runs from job start until the first rank leaves the barrier
	// after construction (no rank can leave before every rank has built
	// its operation); the run is the rest of the job. setupS and runS are
	// the process's CPU time in each window, setupWallS and runWallS the
	// wall time.
	setupS, runS         float64
	setupWallS, runWallS float64
	// modeledS is the exchanges' virtual duration: each exchange's max
	// over ranks, summed.
	modeledS float64
	stats    sim.Stats
	phases   map[trace.Phase]float64 // rank 0's breakdown
}

// add counts a cell's set-up and run into a pass.
func (r *passResult) add(c cellResult) {
	r.SetupS += c.setupS
	r.RunS += c.runS
	r.SetupWallS += c.setupWallS
	r.RunWallS += c.runWallS
}

// systemMPIAdjust applies the system-MPI emulation profile exactly as
// bench.Measure does, so a cell's modeled time can be checked against
// bench.Measure for the same configuration and seed.
func systemMPIAdjust(algo string, opts core.Options, cc *sim.ClusterConfig) core.Options {
	if algo == "system-mpi" {
		if opts.Sys.SmallAlgo == "" {
			opts.Sys = cc.Model.Sys
		}
		cc.OverheadScale = cc.Model.Sys.OverheadScale
	}
	return opts
}

// run executes the cell. Set-up and exchange are separated by wall-clock
// stamps each rank takes as it leaves the barrier; the earliest stamp ends
// set-up. Under tracing the cell records one sim.RunCluster span with
// core.New and core.Alltoall children covering those two windows.
func (sc simCell) run(tr *tracer) (cellResult, error) {
	cc := sc.cc
	opts := systemMPIAdjust(sc.algo, sc.opts, &cc)
	p := cc.Nodes * cc.PPN
	reps := max(sc.reps, 1)
	durations := make([][]float64, reps)
	for k := range durations {
		durations[k] = make([]float64, p)
	}
	left := make([]time.Time, p)
	var leftOnce sync.Once
	var cpuLeft float64
	recvs := make([][]comm.Buffer, p)
	var phases map[trace.Phase]float64
	// Each cell is a separate job: start it from a collected heap, so the
	// GC's heap goal is not inflated by the previous cell's peak and each
	// cell's memory peak is its own.
	runtime.GC()
	start, cpuStart := time.Now(), cpuSeconds()
	stats, err := sim.RunCluster(cc, func(c comm.Comm) error {
		r := c.Rank()
		a, err := core.New(sc.algo, c, sc.block, opts)
		if err != nil {
			return err
		}
		n := c.Size() * sc.block
		send := comm.Virtual(n)
		recvs[r] = make([]comm.Buffer, reps)
		for k := range recvs[r] {
			recvs[r][k] = comm.Virtual(n)
		}
		if sc.real {
			send = comm.Alloc(n)
			testutil.FillAlltoall(send, r, c.Size(), sc.block)
			for k := range recvs[r] {
				recvs[r][k] = comm.Alloc(n)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		left[r] = time.Now()
		// Ranks resume one at a time, so the first to get here is the one
		// with the earliest stamp.
		leftOnce.Do(func() { cpuLeft = cpuSeconds() })
		for k, recv := range recvs[r] {
			if k > 0 {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			t0 := c.Now()
			if err := a.Alltoall(send, recv, sc.block); err != nil {
				return err
			}
			durations[k][r] = c.Now() - t0
		}
		if r == 0 {
			phases = a.Phases()
		}
		return nil
	})
	end := time.Now()
	cpuEnd := cpuSeconds()
	if err != nil {
		return cellResult{}, fmt.Errorf("%s: %w", sc.name, err)
	}
	setupEnd := left[0]
	for _, t := range left {
		if t.Before(setupEnd) {
			setupEnd = t
		}
	}
	res := cellResult{
		setupS:     cpuLeft - cpuStart,
		runS:       cpuEnd - cpuLeft,
		setupWallS: setupEnd.Sub(start).Seconds(),
		runWallS:   end.Sub(setupEnd).Seconds(),
		stats:      stats,
		phases:     phases,
	}
	root := tr.add("sim.RunCluster", sc.name, -1, start, end)
	tr.add("core.New", sc.name, root, start, setupEnd)
	tr.add("core.Alltoall", sc.name, root, setupEnd, end)
	for _, ds := range durations {
		worst := 0.0
		for _, d := range ds {
			worst = max(worst, d)
		}
		res.modeledS += worst
	}
	if sc.real {
		var errs []error
		for r, rs := range recvs {
			for _, recv := range rs {
				if err := testutil.CheckAlltoall(recv, r, p, sc.block); err != nil {
					errs = append(errs, err)
				}
			}
		}
		if len(errs) > 0 {
			return res, fmt.Errorf("%s: %d wrong receive buffers: %w", sc.name, len(errs), errs[0])
		}
	}
	return res, nil
}
