package bench

import (
	"fmt"
	"maps"
	"sync"

	"alltoallx/internal/netmodel"
)

// cache shares measurements across experiments in one process: figures 7
// through 12 reuse identical series (notably the expensive system-MPI
// points, which simulate ~13M messages each at full scale).
var cache = struct {
	mu sync.Mutex
	m  map[string]Point
}{m: make(map[string]Point)}

// measure returns cfg's point, running Measure only when no earlier sweep
// in this process measured the same configuration; fresh reports whether
// it ran. Phase maps are copied into and out of the cache, so a caller
// mutating a returned breakdown cannot corrupt later hits.
func measure(cfg Config) (pt Point, fresh bool, err error) {
	key := cfg.Key()
	cache.mu.Lock()
	pt, ok := cache.m[key]
	cache.mu.Unlock()
	if ok {
		pt.Phases = maps.Clone(pt.Phases)
		return pt, false, nil
	}
	if pt, err = Measure(cfg); err != nil {
		return Point{}, false, err
	}
	stored := pt
	stored.Phases = maps.Clone(pt.Phases)
	cache.mu.Lock()
	cache.m[key] = stored
	cache.mu.Unlock()
	return pt, true, nil
}

// Scale selects the size of a reproduction run.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// NodeCap caps swept node counts (0 = none).
	NodeCap int
	// PPN overrides ranks per node (0 = all cores, as the paper runs).
	PPN int
	// Runs is the repetitions per point.
	Runs int
	// Seed offsets the noise seeds (Config.BaseSeed): the figures run at
	// 0, the snapshot sweeps at 1.
	Seed int64
	// SizeStride keeps every k-th message size (first and last always
	// kept).
	SizeStride int
}

// Full reproduces the paper's configuration: every core of every node,
// all 11 sizes, minimum of 3 runs.
func Full() Scale { return Scale{Name: "full", Runs: 3, SizeStride: 1} }

// Quick is a CI-friendly reduction: 8 nodes x 16 ranks, every other size,
// 2 runs. Absolute times shrink, and the figures' shapes do not all
// survive: by a hand reading (ROADMAP item 2) only fig9 and fig14 keep
// the paper's in full.
func Quick() Scale { return Scale{Name: "quick", NodeCap: 8, PPN: 16, Runs: 2, SizeStride: 2} }

// Table is a completed experiment. Values[xi][si] is what series si
// plots at Xs[xi] in seconds (the total, or its phase), 0 where the
// series' rank cap skipped the point; Rows holds every measured point in
// sweep order (x-major, then series).
type Table struct {
	Exp     Experiment
	Scale   Scale
	Machine netmodel.Params
	Nodes   int // node count used for non-XNodes sweeps
	PPN     int
	Xs      []int
	Labels  []string
	Values  [][]float64
	Rows    []Row
}

// RunExperiment executes every point of the experiment at the given scale.
// progress, if non-nil, receives one line per completed point.
func RunExperiment(exp Experiment, scale Scale, progress func(string)) (*Table, error) {
	machine, err := netmodel.ByName(exp.Machine)
	if err != nil {
		return nil, err
	}
	ppn := machine.Node.CoresPerNode()
	if scale.PPN > 0 && scale.PPN < ppn {
		ppn = scale.PPN
	}
	nodes := exp.Nodes
	if nodes == 0 {
		nodes = 32
	}
	if scale.NodeCap > 0 && nodes > scale.NodeCap {
		nodes = scale.NodeCap
	}
	xs := sweepValues(exp, scale, ppn)
	if len(xs) == 0 {
		return nil, fmt.Errorf("bench: experiment %s has no x values at scale %s", exp.ID, scale.Name)
	}
	t := &Table{Exp: exp, Scale: scale, Machine: machine, Nodes: nodes, PPN: ppn, Xs: xs}
	for _, s := range exp.Series {
		t.Labels = append(t.Labels, s.Label)
	}
	for _, x := range xs {
		vals := make([]float64, len(exp.Series))
		for si, s := range exp.Series {
			cfg, err := pointConfig(exp, s, machine, nodes, ppn, x)
			if err != nil {
				return nil, err
			}
			if s.MaxRanks > 0 && cfg.Nodes*cfg.PPN > s.MaxRanks {
				if progress != nil {
					progress(fmt.Sprintf("%s %s: %s=%d %q skipped (rank cap %d)",
						exp.ID, machine.Name, exp.XAxis, x, s.Label, s.MaxRanks))
				}
				continue
			}
			cfg.Runs, cfg.BaseSeed = scale.Runs, scale.Seed
			pt, fresh, err := measure(cfg)
			if err != nil {
				return nil, err
			}
			if fresh && progress != nil {
				progress(fmt.Sprintf("%s %s: %s=%d %q -> %.3e s (%d msgs)",
					exp.ID, machine.Name, exp.XAxis, x, s.Label, pt.Seconds, pt.Stats.Messages))
			}
			vals[si] = pt.Seconds
			if s.Phase != "" {
				vals[si] = pt.Phases[s.Phase]
			}
			t.Rows = append(t.Rows, newRow(cfg, x, pt))
		}
		t.Values = append(t.Values, vals)
	}
	return t, nil
}

// sweepValues applies the scale's reductions to the experiment's x axis.
func sweepValues(exp Experiment, scale Scale, ppn int) []int {
	var out []int
	switch exp.XAxis {
	case XSize:
		stride := scale.SizeStride
		if stride <= 0 {
			stride = 1
		}
		for i, v := range exp.Xs {
			if i%stride == 0 || i == len(exp.Xs)-1 {
				out = append(out, v)
			}
		}
	case XNodes:
		for _, v := range exp.Xs {
			if scale.NodeCap == 0 || v <= scale.NodeCap {
				out = append(out, v)
			}
		}
	case XPPG:
		for _, v := range exp.Xs {
			if v == 0 || (v <= ppn && ppn%v == 0) {
				out = append(out, v)
			}
		}
	}
	return out
}

// pointConfig resolves one (experiment, series, x) into a measurement
// config.
func pointConfig(exp Experiment, s Series, machine netmodel.Params, nodes, ppn, x int) (Config, error) {
	cfg := Config{Machine: machine, Nodes: nodes, PPN: ppn, Op: exp.Op, Algo: s.Algo, Opts: s.Opts, Block: exp.Block, Fabric: s.Fabric}
	switch exp.XAxis {
	case XSize:
		cfg.Block = x
	case XNodes:
		cfg.Nodes = x
	case XPPG:
		if x == 0 {
			cfg.Algo = "node-aware"
			cfg.Opts.PPG = 0
		} else {
			cfg.Algo = "locality-aware"
			cfg.Opts.PPG = x
		}
	}
	if cfg.Block <= 0 {
		return Config{}, fmt.Errorf("bench: %s/%s: block unresolved", exp.ID, s.Label)
	}
	// Leader/group sizes must divide the (possibly reduced) ppn; clamp to
	// the nearest divisor so Quick scale remains runnable.
	cfg.Opts.PPL = nearestDivisor(cfg.Opts.PPL, ppn)
	cfg.Opts.PPG = nearestDivisor(cfg.Opts.PPG, ppn)
	return cfg, nil
}

// nearestDivisor returns the largest divisor of ppn that is <= q (0 stays
// 0: "use default").
func nearestDivisor(q, ppn int) int {
	if q <= 0 {
		return q
	}
	if q > ppn {
		q = ppn
	}
	for ; q > 1; q-- {
		if ppn%q == 0 {
			return q
		}
	}
	return 1
}

// Headline computes the paper's headline claim from a completed fig10-like
// table: the best speedup of any of our algorithms over system MPI at any
// x. It returns the speedup and the x where it occurs.
func Headline(t *Table) (speedup float64, atX int, vs string) {
	sys := -1
	for i, l := range t.Labels {
		if l == "System MPI" {
			sys = i
		}
	}
	if sys < 0 {
		return 0, 0, ""
	}
	for xi, x := range t.Xs {
		for si, l := range t.Labels {
			if si == sys || t.Values[xi][si] <= 0 {
				continue
			}
			sp := t.Values[xi][sys] / t.Values[xi][si]
			if sp > speedup {
				speedup, atX, vs = sp, x, l
			}
		}
	}
	return speedup, atX, vs
}
