package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"alltoallx/internal/artifact"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/topo"
	"alltoallx/internal/trace"
)

// Row is one measured point: one line of a snapshot file.
type Row struct {
	Machine string `json:"machine"`
	Nodes   int    `json:"nodes"`
	PPN     int    `json:"ppn"`
	// Fabric names the fabric of the flow-level contention model; empty
	// is the analytic model alone.
	Fabric string     `json:"fabric,omitempty"`
	Algo   string     `json:"algo"`
	Inner  core.Inner `json:"inner,omitempty"`
	PPL    int        `json:"ppl,omitempty"`
	PPG    int        `json:"ppg,omitempty"`
	// X is the point's value on the experiment's x axis.
	X int `json:"x"`
	// Seconds is the collective's duration (max across ranks, min across
	// runs) and Messages the simulated message count of that run.
	Seconds  float64 `json:"seconds"`
	Messages uint64  `json:"messages"`
	// The flow model's congestion counters (sim.Stats), zero without a
	// fabric.
	LinkBlockedSeconds float64 `json:"linkBlockedSeconds,omitempty"`
	LinkQueuedSeconds  float64 `json:"linkQueuedSeconds,omitempty"`
	MaxLinkQueueBytes  int     `json:"maxLinkQueueBytes,omitempty"`
	// Phases is rank 0's per-phase breakdown (Point.Phases).
	Phases map[trace.Phase]float64 `json:"phases,omitempty"`
}

func newRow(cfg Config, x int, pt Point) Row {
	return Row{
		Machine: cfg.Machine.Name, Nodes: cfg.Nodes, PPN: cfg.PPN, Fabric: cfg.Fabric,
		Algo: cfg.Algo, Inner: cfg.Opts.Inner, PPL: cfg.Opts.PPL, PPG: cfg.Opts.PPG,
		X: x, Seconds: pt.Seconds, Messages: pt.Stats.Messages,
		LinkBlockedSeconds: pt.Stats.LinkBlockedSeconds,
		LinkQueuedSeconds:  pt.Stats.LinkQueuedSeconds,
		MaxLinkQueueBytes:  pt.Stats.MaxLinkQueueBytes,
		Phases:             pt.Phases,
	}
}

// label names the row's algorithm and the options it sets.
func (r Row) label() string {
	l := r.Algo
	if r.Inner != "" {
		l += " inner=" + string(r.Inner)
	}
	if r.PPL > 0 {
		l += fmt.Sprintf(" ppl=%d", r.PPL)
	}
	if r.PPG > 0 {
		l += fmt.Sprintf(" ppg=%d", r.PPG)
	}
	return l
}

// Sweep is a snapshot sweep: an experiment run on every Table 1 machine
// at a fixed scale, so that a rerun regenerates its committed
// BENCH_<ID>.json byte for byte. Rows holds its measured points.
type Sweep struct {
	Exp   Experiment
	Scale Scale
	Rows  []Row
}

// sweeps returns the snapshot sweeps' specs.
func sweeps() []Sweep {
	// The contention sweep's fabric-free rows of pairwise and bruck serve
	// every fabric's cells; each fabric adds its own schedule, then all
	// three algorithms under its flow model.
	contention := algoSeries("pairwise", "bruck")
	var flow []Series
	for _, f := range topo.FabricKinds() {
		contention = append(contention, algoSeries("sched:"+f)...)
		for _, a := range []string{"pairwise", "bruck", "sched:" + f} {
			flow = append(flow, Series{Label: a + " over " + f, Algo: a, Fabric: f})
		}
	}
	return []Sweep{
		{
			// The performance-regression baseline: the algorithm family,
			// the generated direct-connect schedules included, on a world
			// small enough for CI seconds and large enough that node-aware
			// aggregation and multi-hop schedules have real structure (32
			// ranks, a power of two, so the hypercube schedule runs). The
			// sizes span the latency-bound corner, the mid-size crossovers
			// and bandwidth-bound blocks.
			Exp: Experiment{
				ID: "regress", Title: "Regression baseline", XAxis: XSize,
				Xs: []int{4, 64, 1024, 8192}, Nodes: 4,
				Series: algoSeries("pairwise", "nonblocking", "bruck", "node-aware",
					"multileader-node-aware", "sched:ring", "sched:torus", "sched:hypercube"),
			},
			Scale: Scale{PPN: 8, Runs: 2, Seed: 1},
		},
		{
			// Rank scaling from 256 to 4096 ranks, because algorithm
			// choice flips with scale (SuperMUC Phase 2, PAPERS.md): the
			// loop-coded baselines against the rank-sliced schedules. One
			// run per point: the top points simulate millions of
			// messages, and the object is the scaling shape, not run
			// variance. A cap bounds the cost of executing a schedule
			// under the simulator, not of compiling it: the ring moves
			// Theta(p^3) staged blocks and stops first, the torus's
			// Theta(p^2 sqrt(p)) next, and sched:bruck's and
			// sched:hypercube's per-block steps make 4096 ranks minutes
			// of wall time for no extra story.
			Exp: Experiment{
				ID: "scale", Title: "Rank scaling", XAxis: XNodes,
				Xs: []int{8, 16, 32, 64, 128}, Block: 1024,
				Series: []Series{
					{Label: "pairwise", Algo: "pairwise"},
					{Label: "bruck", Algo: "bruck"},
					{Label: "sched:pairwise", Algo: "sched:pairwise"},
					{Label: "sched:bruck", Algo: "sched:bruck", MaxRanks: 2048},
					{Label: "sched:hypercube", Algo: "sched:hypercube", MaxRanks: 2048},
					{Label: "sched:torus", Algo: "sched:torus", MaxRanks: 1024},
					{Label: "sched:ring", Algo: "sched:ring", MaxRanks: 256},
				},
			},
			Scale: Scale{PPN: 32, Runs: 1, Seed: 1},
		},
		{
			// Does the fastest algorithm change once inter-node messages
			// contend for the fabric's links? Topology-oblivious exchanges
			// (pairwise, bruck) share many links of a direct-connect
			// fabric, while each sched:* schedule was compiled for its
			// topology (Basu et al., PAPERS.md). Few ranks per node keep
			// the wire, not intra-node staging, dominant; the 512 and
			// 1024 B points sit on the bruck/pairwise crossover, where
			// bruck's long-haul messages queue on ring links.
			Exp: Experiment{
				ID: "contention", Title: "Analytic vs flow-level contention model", XAxis: XSize,
				Xs: []int{256, 512, 1024, 4096, 65536}, Nodes: 16,
				Series: append(contention, flow...),
			},
			Scale: Scale{PPN: 4, Runs: 1, Seed: 1},
		},
	}
}

// algoSeries returns one series per algorithm, labelled with its name.
func algoSeries(algos ...string) []Series {
	out := make([]Series, len(algos))
	for i, a := range algos {
		out[i] = Series{Label: a, Algo: a}
	}
	return out
}

// RunSweep runs the snapshot sweep id (regress, scale or contention) on
// every Table 1 machine. maxRanks, when positive, caps the world: a node
// sweep drops its larger node counts, a fixed world shrinks, and either
// stops at a power of two so the hypercube schedule still runs. progress,
// if non-nil, receives one line per measured point.
func RunSweep(id string, maxRanks int, progress func(string)) (*Sweep, error) {
	var s Sweep
	for _, sw := range sweeps() {
		if sw.Exp.ID == id {
			s = sw
		}
	}
	if s.Exp.ID == "" {
		return nil, fmt.Errorf("bench: unknown sweep %q", id)
	}
	if maxRanks > 0 {
		smallest := 2 * s.Scale.PPN
		if s.Exp.XAxis == XNodes {
			smallest = s.Exp.Xs[0] * s.Scale.PPN
		}
		if maxRanks < smallest {
			return nil, fmt.Errorf("bench: -maxranks %d below the smallest %s world (%d ranks)", maxRanks, id, smallest)
		}
		s.Scale.NodeCap = 1 << (bits.Len(uint(maxRanks/s.Scale.PPN)) - 1)
		s.Scale.Name = fmt.Sprintf("-maxranks %d", maxRanks)
	}
	for _, m := range netmodel.Machines() {
		exp := s.Exp
		exp.Machine = m.Name
		t, err := RunExperiment(exp, s.Scale, progress)
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, t.Rows...)
	}
	return &s, nil
}

// Encode writes the sweep as JSON Lines: a header object naming the
// experiment, its x axis and methodology, then one row per line. A run
// that drops some of a sweep's points (scale under -maxranks) writes the
// full run's header, then the rows of the points it keeps, in order.
func (s *Sweep) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	header := struct {
		// Version 2 is this row-per-line form; version 1 nested each
		// sweep's points in a shape of its own.
		Version    int    `json:"version"`
		Experiment string `json:"experiment"`
		Title      string `json:"title"`
		X          string `json:"x"`
		Runs       int    `json:"runs"`
		Seed       int64  `json:"seed"`
	}{2, s.Exp.ID, s.Exp.Title, s.Exp.XAxis.String(), s.Scale.Runs, s.Scale.Seed}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, r := range s.Rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// Save writes the sweep to path atomically (internal/artifact).
func (s *Sweep) Save(path string) error {
	return artifact.Save(path, "bench: saving "+s.Exp.ID+" sweep", s.Encode)
}

// Format prints the sweep as text: one table per machine and fabric,
// algorithms down and x across. In each column, * marks the fastest
// algorithm; in a flow-model table, a marks the fastest of the same
// algorithms under the analytic model (their fabric-free rows), and a
// column where the two differ is a flip.
func (s *Sweep) Format(w io.Writer) error {
	type point struct {
		machine, label string
		nodes, ppn, x  int
	}
	at := func(r Row) point { return point{r.Machine, r.label(), r.Nodes, r.PPN, r.X} }
	analytic := make(map[point]float64)
	var keys [][2]string
	tables := make(map[[2]string][]Row)
	for _, r := range s.Rows {
		if r.Fabric == "" {
			analytic[at(r)] = r.Seconds
		}
		k := [2]string{r.Machine, r.Fabric}
		if tables[k] == nil {
			keys = append(keys, k)
		}
		tables[k] = append(tables[k], r)
	}
	var b strings.Builder
	flow, flips := false, 0
	for _, k := range keys {
		rows := tables[k]
		var labels []string
		var xs []int
		cells := make(map[point]float64)
		fastest := make(map[int]Row)
		fastestAnalytic := make(map[int]Row)
		for _, r := range rows {
			if !slices.Contains(labels, r.label()) {
				labels = append(labels, r.label())
			}
			if !slices.Contains(xs, r.X) {
				xs = append(xs, r.X)
			}
			cells[point{label: r.label(), x: r.X}] = r.Seconds
			if f, ok := fastest[r.X]; !ok || r.Seconds < f.Seconds {
				fastest[r.X] = r
			}
			if a, ok := analytic[at(r)]; ok && r.Fabric != "" {
				if f, ok := fastestAnalytic[r.X]; !ok || a < analytic[at(f)] {
					fastestAnalytic[r.X] = r
				}
			}
		}
		world := fmt.Sprintf("%d nodes x %d ranks", rows[0].Nodes, rows[0].PPN)
		if s.Exp.XAxis == XNodes {
			world = fmt.Sprintf("%d ranks/node", rows[0].PPN)
		}
		model := "analytic model"
		if k[1] != "" {
			flow = true
			model = "flow model over the " + k[1] + " fabric"
		}
		lines := []string{
			fmt.Sprintf("%s — %s, %s, %s (runs=%d seed=%d)", s.Exp.ID, k[0], world, model, s.Scale.Runs, s.Scale.Seed),
			fmt.Sprintf("  %-26s", "algorithm \\ "+s.Exp.XAxis.String()),
		}
		for _, x := range xs {
			lines[1] += fmt.Sprintf(" %12d  ", x)
		}
		for _, l := range labels {
			line := fmt.Sprintf("  %-26s", l)
			for _, x := range xs {
				v, ok := cells[point{label: l, x: x}]
				if !ok {
					line += fmt.Sprintf(" %12s  ", "-")
					continue
				}
				mark := ""
				if fastest[x].label() == l {
					mark += "*"
				}
				if f, ok := fastestAnalytic[x]; ok && f.label() == l {
					mark += "a"
				}
				line += fmt.Sprintf(" %12.4e%-2s", v, mark)
			}
			lines = append(lines, line)
		}
		var flipped []string
		for _, x := range xs {
			if f, ok := fastestAnalytic[x]; ok && f.label() != fastest[x].label() {
				flipped = append(flipped, strconv.Itoa(x))
			}
		}
		if len(flipped) > 0 {
			flips += len(flipped)
			lines = append(lines, "  flip at "+s.Exp.XAxis.String()+" "+strings.Join(flipped, ", "))
		}
		for _, line := range lines {
			b.WriteString(strings.TrimRight(line, " ") + "\n")
		}
		b.WriteString("\n")
	}
	b.WriteString("* fastest in its column")
	if flow {
		fmt.Fprintf(&b, "; a fastest under the analytic model\nflips (the flow model changes the fastest algorithm): %d", flips)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}
