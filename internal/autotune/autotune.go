// Package autotune implements the paper's future-work goal (Section 5) of
// dynamically selecting the optimal all-to-all algorithm "for a given
// computer, system MPI, process count, and data size". Selection is
// model-driven: candidates are evaluated on the discrete-event machine
// model (no cluster time needed), and the per-size winners are baked into
// a persistent dispatch Table. The full loop is
//
//	BuildTable -> Table.Save            (offline, cmd/a2atune -o)
//	Load -> Table.Options -> core.New("tuned", ...)   (run time)
//
// so a machine is tuned once and every subsequent run dispatches each
// message size to its precomputed winner.
package autotune

import (
	"fmt"
	"sort"

	"alltoallx/internal/bench"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
)

// Candidate is one algorithm configuration under consideration.
type Candidate struct {
	// Name labels the candidate in reports (defaults to Algo).
	Name string
	// Algo and Opts are passed to core.New.
	Algo string
	Opts core.Options
}

// Label returns the candidate's display name: Name, or Algo when unnamed.
// It is also the Entry.Name a tabled winner is recorded under.
func (c Candidate) Label() string {
	if c.Name != "" {
		return c.Name
	}
	return c.Algo
}

// Choice is a measured candidate.
type Choice struct {
	Candidate
	// Seconds is the predicted collective time on the machine model.
	Seconds float64
}

// schedMaxRanks caps the world size at which schedule-backed candidates
// join the default pool. Every rank builds only its own program
// (sched.GenerateRank, O(slice)), and the world proof walks one round of
// the world at a time, so neither caps the pool; the bound is the
// simulator's cost of actually *executing* a candidate during the
// sweep. Torus and hypercube stay
// affordable to 1024 ranks and beyond; beyond the cap they remain
// constructible by name.
const schedMaxRanks = 1024

// ringMaxRanks separately caps the ring schedule: every block rides
// Theta(p) hops, so executing one exchange costs Theta(p^3) block copies
// — at 1024 ranks that is ~10^9 staged copies per sweep point, which
// would dwarf the rest of the sweep combined.
const ringMaxRanks = 256

// vSchedMaxRanks is the schedule-backed alltoallv's ceiling: it proves
// a world per count matrix, so core rejects it at construction above
// core.MatrixProofMaxRanks.
const vSchedMaxRanks = core.MatrixProofMaxRanks

// DefaultCandidates returns the tuning pool for an operation at a
// nodes x ppn world, restricted to divisors of ppn. For OpAlltoall it is
// the paper's algorithm family with the leader/group sizes it evaluates,
// plus the generated direct-connect schedules (sched:torus, sched:ring up
// to ringMaxRanks, and sched:hypercube when the rank count is a power of
// two) on worlds of at most schedMaxRanks ranks; for OpAlltoallv it is
// the flat baselines plus the leader-aggregating variants.
func DefaultCandidates(op core.Op, nodes, ppn int) []Candidate {
	if op.Norm() == core.OpAlltoallv {
		cands := []Candidate{
			{Name: "pairwise", Algo: "pairwise"},
			{Name: "nonblocking", Algo: "nonblocking"},
			{Name: "node-aware", Algo: "node-aware"},
		}
		for _, q := range []int{4, 8, 16} {
			// q == ppn is valid (one whole-node group, the node-aware
			// degenerate case) and must be swept exactly as the OpAlltoall
			// branch sweeps it: a strict bound here silently dropped the
			// locality-aware/PPG=ppn configuration from every alltoallv
			// sweep.
			if q <= ppn && ppn%q == 0 {
				cands = append(cands,
					Candidate{Name: fmt.Sprintf("locality-aware/%dppg", q), Algo: "locality-aware", Opts: core.Options{PPG: q}},
				)
			}
		}
		// The schedule-backed alltoallv compiles and verifies the
		// assembled schedule per count matrix, so it joins the pool only
		// up to its ceiling.
		if p := nodes * ppn; p > 1 && p <= vSchedMaxRanks {
			cands = append(cands, Candidate{Name: "sched:pairwise", Algo: "sched:pairwise"})
		}
		return cands
	}
	cands := []Candidate{
		{Name: "bruck", Algo: "bruck"},
		{Name: "hierarchical", Algo: "hierarchical"},
		{Name: "node-aware", Algo: "node-aware"},
	}
	for _, q := range []int{4, 8, 16} {
		if q <= ppn && ppn%q == 0 {
			cands = append(cands,
				Candidate{Name: fmt.Sprintf("multileader/%dppl", q), Algo: "multileader", Opts: core.Options{PPL: q}},
				Candidate{Name: fmt.Sprintf("locality-aware/%dppg", q), Algo: "locality-aware", Opts: core.Options{PPG: q}},
				Candidate{Name: fmt.Sprintf("multileader-node-aware/%dppl", q), Algo: "multileader-node-aware", Opts: core.Options{PPL: q}},
			)
		}
	}
	if p := nodes * ppn; p > 1 && p <= schedMaxRanks {
		if p <= ringMaxRanks {
			cands = append(cands, Candidate{Name: "sched:ring", Algo: "sched:ring"})
		}
		cands = append(cands, Candidate{Name: "sched:torus", Algo: "sched:torus"})
		if p&(p-1) == 0 {
			cands = append(cands, Candidate{Name: "sched:hypercube", Algo: "sched:hypercube"})
		}
	}
	return cands
}

// measure simulates one (candidate, size) point — the unit both sweep
// modes count when they report measured-vs-pruned totals.
func measure(m netmodel.Params, op core.Op, nodes, ppn, block int, cand Candidate, runs int, seed int64) (float64, error) {
	pt, err := bench.Measure(bench.Config{
		Machine: m, Nodes: nodes, PPN: ppn, Op: op,
		Algo: cand.Algo, Opts: cand.Opts, Block: block,
		Runs: runs, BaseSeed: seed,
	})
	if err != nil {
		return 0, fmt.Errorf("autotune: candidate %s: %w", cand.Label(), err)
	}
	return pt.Seconds, nil
}

// Select evaluates every candidate for one (operation, configuration) and
// returns the winner plus the full ranking (fastest first). For
// OpAlltoallv, block is the mean payload per peer of the benchmark's
// skewed count matrix. progress, if non-nil, receives one line per
// completed candidate (1024-rank sweeps spend minutes per point; silence
// reads as a hang).
func Select(m netmodel.Params, op core.Op, nodes, ppn, block int, cands []Candidate, runs int, seed int64, progress func(string)) (Choice, []Choice, error) {
	if len(cands) == 0 {
		return Choice{}, nil, fmt.Errorf("autotune: no candidates")
	}
	ranking := make([]Choice, 0, len(cands))
	for i, cand := range cands {
		secs, err := measure(m, op, nodes, ppn, block, cand, runs, seed)
		if err != nil {
			return Choice{}, nil, err
		}
		if progress != nil {
			progress(fmt.Sprintf("%6d B [%2d/%d] %-30s %.4e s", block, i+1, len(cands), cand.Label(), secs))
		}
		ranking = append(ranking, Choice{Candidate: cand, Seconds: secs})
	}
	sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].Seconds < ranking[j].Seconds })
	return ranking[0], ranking, nil
}

// sortedSizes validates and normalizes a sweep's size grid.
func sortedSizes(sizes []int) ([]int, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("autotune: no sizes")
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	for i, s := range sorted {
		if s <= 0 || (i > 0 && s == sorted[i-1]) {
			return nil, fmt.Errorf("autotune: sizes must be positive and distinct, got %v", sizes)
		}
	}
	return sorted, nil
}

// BuildTable selects the winner at every size by exhaustive measurement
// and assembles the results into a persistable dispatch Table for the
// (machine, nodes, ppn, op) world. progress, if non-nil, receives one
// line per measured candidate. For a cost-model-pruned sweep that
// measures a fraction of the points, see BuildTablePredictive.
func BuildTable(m netmodel.Params, op core.Op, nodes, ppn int, sizes []int, cands []Candidate, runs int, seed int64, progress func(string)) (*Table, error) {
	sorted, err := sortedSizes(sizes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Version: TableVersion, Machine: m.Name, Nodes: nodes, PPN: ppn, Op: op.Norm(),
		Provenance: &Provenance{Source: m.Name, Mode: "sweep"},
	}
	for _, s := range sorted {
		best, _, err := Select(m, op, nodes, ppn, s, cands, runs, seed, progress)
		if err != nil {
			return nil, err
		}
		t.Entries = append(t.Entries, EntryFor(s, best))
	}
	return t, nil
}
