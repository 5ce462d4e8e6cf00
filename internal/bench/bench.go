// Package bench is the experiment harness that regenerates every table and
// figure in the paper's evaluation (Section 4), and the committed snapshot
// sweeps (BENCH_regress.json, BENCH_scale.json, BENCH_contention.json).
// Each Experiment describes one figure or sweep: the machine model, the
// x-axis (message size, node count, or group size), and the plotted series
// (algorithm + options, or an internal phase for the breakdown figures).
// The runner executes each point as a discrete-event simulation, repeats
// it with different noise seeds, and reports the minimum — exactly the
// paper's "minimum of 3 runs for each data point" methodology.
package bench

import (
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/sim"
	"alltoallx/internal/trace"
)

// Point is one measured data point.
type Point struct {
	// Seconds is the collective's duration: max across ranks within a run,
	// min across runs.
	Seconds float64
	// Phases holds rank 0's per-phase breakdown from the minimum run.
	// Rank 0 is a leader in every algorithm, so its timers cover all
	// internal stages; a max-merge across ranks would instead fold
	// non-leader idle time into the gather/scatter phases (a non-leader's
	// "scatter" lasts the whole leader pipeline), which is not what the
	// paper's Figures 13-16 plot.
	Phases map[trace.Phase]float64
	// Stats carries simulator counters from the selected (minimum) run.
	Stats sim.Stats
}

// Config fully identifies one measurement.
type Config struct {
	Machine netmodel.Params
	Nodes   int
	PPN     int
	// Op selects the measured collective: core.OpAlltoall (default) times
	// a fixed-size exchange of Block bytes per rank pair; core.OpAlltoallv
	// times a skewed variable-size exchange (ZipfCounts) whose mean
	// payload per peer is Block.
	Op    core.Op
	Algo  string
	Opts  core.Options
	Block int
	// Runs is the number of seeded repetitions (paper: 3).
	Runs int
	// BaseSeed offsets the noise seeds; runs use BaseSeed+1..BaseSeed+Runs.
	BaseSeed int64
	// Fabric, when non-empty, enables the flow-level contention model
	// over the named topo.Fabric kind (sim.ClusterConfig.Fabric); empty
	// measures under the analytic model alone.
	Fabric string
}

// Key returns a map key identifying the simulation (used to share runs
// between series that read different phases of the same algorithm).
func (c Config) Key() string {
	return fmt.Sprintf("%s|%d|%d|%s|%s|%s|%d|%d|%d|%d|%d|%d|%s|%s",
		c.Machine.Name, c.Nodes, c.PPN, c.Op.Norm(), c.Algo, c.Opts.Inner,
		c.Opts.PPL, c.Opts.PPG, c.Opts.BatchWindow, c.Block, c.Runs, c.BaseSeed,
		c.Opts.Table.Fingerprint(), c.Fabric)
}

// Measure runs the configuration and returns its data point. The algorithm
// object is constructed outside the timed region (as in the paper); a
// barrier aligns the ranks and a single exchange is timed (the simulator
// starts from a clean state, so no warm-up iteration is needed).
func Measure(cfg Config) (Point, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	opts := cfg.Opts
	scale := 1.0
	if cfg.Algo == "system-mpi" {
		if opts.Sys.SmallAlgo == "" {
			opts.Sys = cfg.Machine.Sys
		}
		scale = cfg.Machine.Sys.OverheadScale
	}
	best := Point{Seconds: -1}
	p := cfg.Nodes * cfg.PPN
	var vcounts [][]int
	var vMax int
	if cfg.Op.Norm() == core.OpAlltoallv {
		vcounts = ZipfCounts(p, cfg.Block)
		vMax = MaxTotal(vcounts)
	}
	for run := 0; run < cfg.Runs; run++ {
		durations := make([]float64, p)
		snaps := make([]map[trace.Phase]float64, p)
		cc := sim.ClusterConfig{
			Model: cfg.Machine, Nodes: cfg.Nodes, PPN: cfg.PPN,
			Seed: cfg.BaseSeed + int64(run) + 1, OverheadScale: scale,
			Fabric: cfg.Fabric,
		}
		body := func(c comm.Comm) error {
			a, err := core.New(cfg.Algo, c, cfg.Block, opts)
			if err != nil {
				return err
			}
			send := comm.Virtual(c.Size() * cfg.Block)
			recv := comm.Virtual(c.Size() * cfg.Block)
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := c.Now()
			if err := a.Alltoall(send, recv, cfg.Block); err != nil {
				return err
			}
			durations[c.Rank()] = c.Now() - t0
			snaps[c.Rank()] = a.Phases()
			return nil
		}
		if vcounts != nil {
			body = func(c comm.Comm) error {
				a, err := core.NewV(cfg.Algo, c, vMax, opts)
				if err != nil {
					return err
				}
				r := c.Rank()
				sc := vcounts[r]
				rc := make([]int, p)
				for s := 0; s < p; s++ {
					rc[s] = vcounts[s][r]
				}
				sdispls, sTotal := core.DisplsFromCounts(sc)
				rdispls, rTotal := core.DisplsFromCounts(rc)
				send := comm.Virtual(sTotal)
				recv := comm.Virtual(rTotal)
				if err := c.Barrier(); err != nil {
					return err
				}
				t0 := c.Now()
				if err := a.Alltoallv(send, sc, sdispls, recv, rc, rdispls); err != nil {
					return err
				}
				durations[r] = c.Now() - t0
				snaps[r] = a.Phases()
				return nil
			}
		}
		stats, err := sim.RunCluster(cc, body)
		if err != nil {
			return Point{}, fmt.Errorf("bench: %s %s nodes=%d ppn=%d block=%d run=%d: %w",
				cfg.Op.Norm(), cfg.Algo, cfg.Nodes, cfg.PPN, cfg.Block, run, err)
		}
		d := maxOf(durations)
		if best.Seconds < 0 || d < best.Seconds {
			best = Point{Seconds: d, Phases: snaps[0], Stats: stats}
		}
	}
	return best, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
