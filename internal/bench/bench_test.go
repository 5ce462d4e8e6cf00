package bench

import (
	"bytes"
	"strings"
	"testing"

	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/trace"
)

// tinyDane keeps bench-package tests fast.
func tinyDane() netmodel.Params {
	m := netmodel.Dane()
	m.Node.Sockets, m.Node.NumaPerSocket, m.Node.CoresPerNuma = 2, 2, 2
	return m
}

func TestMeasureDeterministic(t *testing.T) {
	t.Parallel()
	cfg := Config{Machine: tinyDane(), Nodes: 2, PPN: 8, Algo: "node-aware", Block: 64, Runs: 2, BaseSeed: 5}
	a, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Errorf("same config diverged: %g vs %g", a.Seconds, b.Seconds)
	}
	if a.Seconds <= 0 || a.Stats.Messages == 0 {
		t.Errorf("implausible point: %+v", a)
	}
	if a.Phases[trace.PhaseTotal] <= 0 {
		t.Errorf("missing total phase: %v", a.Phases)
	}
}

func TestMeasureMinOfRuns(t *testing.T) {
	t.Parallel()
	// More runs can only lower (or keep) the minimum.
	cfg := Config{Machine: tinyDane(), Nodes: 2, PPN: 8, Algo: "pairwise", Block: 32, Runs: 1, BaseSeed: 9}
	one, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runs = 3
	three, err := Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if three.Seconds > one.Seconds {
		t.Errorf("min of 3 (%g) exceeds min of 1 (%g)", three.Seconds, one.Seconds)
	}
}

func TestMeasureSystemMPIProfile(t *testing.T) {
	t.Parallel()
	// system-mpi without an explicit profile inherits the machine's.
	cfg := Config{Machine: tinyDane(), Nodes: 2, PPN: 8, Algo: "system-mpi", Block: 16, Runs: 1}
	if _, err := Measure(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureErrors(t *testing.T) {
	t.Parallel()
	cfg := Config{Machine: tinyDane(), Nodes: 2, PPN: 8, Algo: "no-such", Block: 16, Runs: 1}
	if _, err := Measure(cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	t.Parallel()
	exps := Experiments()
	if len(exps) != 13 {
		t.Fatalf("expected 13 experiments (fig7..fig18 + alltoallv), got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Expectation == "" || len(e.Series) == 0 {
			t.Errorf("%s: incomplete definition", e.ID)
		}
		if _, err := netmodel.ByName(e.Machine); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if len(e.Xs) == 0 {
			t.Errorf("%s: no x values", e.ID)
		}
	}
	for _, id := range []string{"fig7", "fig10", "fig13", "fig16", "fig18"} {
		if !seen[id] {
			t.Errorf("missing %s", id)
		}
	}
	if _, err := Lookup("fig10"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestSweepValues(t *testing.T) {
	t.Parallel()
	exp := Experiment{XAxis: XSize, Xs: []int{4, 8, 16, 32, 64}}
	got := sweepValues(exp, Scale{SizeStride: 2}, 16)
	want := []int{4, 16, 64}
	if len(got) != len(want) {
		t.Fatalf("stride sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stride sweep = %v, want %v", got, want)
		}
	}
	exp = Experiment{XAxis: XNodes, Xs: []int{2, 4, 8, 16, 32}}
	got = sweepValues(exp, Scale{NodeCap: 8}, 16)
	if len(got) != 3 || got[2] != 8 {
		t.Fatalf("node cap sweep = %v", got)
	}
	exp = Experiment{XAxis: XPPG, Xs: []int{0, 16, 8, 4}}
	got = sweepValues(exp, Scale{}, 8)
	if len(got) != 3 { // 16 dropped: exceeds ppn 8
		t.Fatalf("ppg sweep = %v", got)
	}
}

func TestNearestDivisor(t *testing.T) {
	t.Parallel()
	cases := []struct{ q, ppn, want int }{
		{0, 16, 0}, {4, 16, 4}, {5, 16, 4}, {16, 8, 8}, {3, 8, 2}, {7, 14, 7}, {1, 9, 1},
	}
	for _, tc := range cases {
		if got := nearestDivisor(tc.q, tc.ppn); got != tc.want {
			t.Errorf("nearestDivisor(%d, %d) = %d, want %d", tc.q, tc.ppn, got, tc.want)
		}
	}
}

func TestRunExperimentQuickShape(t *testing.T) {
	t.Parallel()
	exp, err := Lookup("fig10")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "test", NodeCap: 2, PPN: 8, Runs: 1, SizeStride: 5}
	tbl, err := RunExperiment(exp, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Xs) == 0 || len(tbl.Labels) != len(exp.Series) {
		t.Fatalf("table shape: %d xs, %d labels", len(tbl.Xs), len(tbl.Labels))
	}
	for xi := range tbl.Xs {
		for si := range tbl.Labels {
			if tbl.Values[xi][si] <= 0 {
				t.Errorf("non-positive cell [%d][%d]", xi, si)
			}
		}
	}
	sp, atX, vs := Headline(tbl)
	if sp <= 0 || atX == 0 || vs == "" {
		t.Errorf("headline: %g %d %q", sp, atX, vs)
	}

	var text, csv bytes.Buffer
	if err := tbl.Format(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "fig10") || !strings.Contains(text.String(), "System MPI") {
		t.Errorf("formatted table missing headers:\n%s", text.String())
	}
	if err := tbl.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(tbl.Xs)+1 {
		t.Errorf("CSV rows = %d, want %d", len(lines), len(tbl.Xs)+1)
	}
}

func TestRunExperimentBreakdownPhases(t *testing.T) {
	t.Parallel()
	exp, err := Lookup("fig14")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "test", NodeCap: 2, PPN: 8, Runs: 1, SizeStride: 10}
	tbl, err := RunExperiment(exp, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Breakdown cells report the selected phase, which must be below the
	// total of the same point (rows run x-major, then series).
	if len(tbl.Rows) != len(tbl.Xs)*len(tbl.Labels) {
		t.Fatalf("%d rows for %d xs x %d series", len(tbl.Rows), len(tbl.Xs), len(tbl.Labels))
	}
	for xi := range tbl.Xs {
		for si := range tbl.Labels {
			if tbl.Values[xi][si] <= 0 {
				t.Errorf("phase cell [%d][%d] = %g", xi, si, tbl.Values[xi][si])
			}
			if row := tbl.Rows[xi*len(tbl.Labels)+si]; tbl.Values[xi][si] > row.Seconds ||
				tbl.Values[xi][si] != row.Phases[exp.Series[si].Phase] {
				t.Errorf("phase cell [%d][%d] = %g, row %+v", xi, si, tbl.Values[xi][si], row)
			}
		}
	}
}

func TestFormatTable1(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := FormatTable1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Dane", "Amber", "Tuolomne", "112", "96", "Slingshot-11", "Omni-Path"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestPointConfigXAxes(t *testing.T) {
	t.Parallel()
	m := tinyDane()
	exp := Experiment{XAxis: XPPG, Block: 64}
	s := Series{Algo: "locality-aware", Opts: core.Options{Inner: core.InnerPairwise}}
	cfg, err := pointConfig(exp, s, m, 4, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Algo != "node-aware" {
		t.Errorf("PPG=0 should map to node-aware, got %s", cfg.Algo)
	}
	cfg, err = pointConfig(exp, s, m, 4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Algo != "locality-aware" || cfg.Opts.PPG != 4 {
		t.Errorf("PPG=4: %+v", cfg)
	}
	exp = Experiment{XAxis: XSize}
	if _, err := pointConfig(exp, s, m, 4, 8, 0); err == nil {
		t.Error("unresolved block accepted")
	}
}

// TestZipfCounts: the skewed count matrix is deterministic, exactly
// row-normalized to p*mean, and actually skewed.
func TestZipfCounts(t *testing.T) {
	t.Parallel()
	const p, mean = 16, 64
	a := ZipfCounts(p, mean)
	b := ZipfCounts(p, mean)
	maxC, minC := 0, 1<<30
	for s := 0; s < p; s++ {
		total := 0
		for d := 0; d < p; d++ {
			if a[s][d] != b[s][d] {
				t.Fatalf("counts not deterministic at [%d][%d]", s, d)
			}
			if a[s][d] < 0 {
				t.Fatalf("negative count at [%d][%d]", s, d)
			}
			if a[s][d] > maxC {
				maxC = a[s][d]
			}
			if a[s][d] < minC {
				minC = a[s][d]
			}
			total += a[s][d]
		}
		if total != p*mean {
			t.Fatalf("row %d total %d, want %d", s, total, p*mean)
		}
	}
	if maxC <= mean {
		t.Fatalf("no skew: max count %d <= mean %d", maxC, mean)
	}
	if mt := MaxTotal(a); mt < p*mean {
		t.Fatalf("MaxTotal %d below row total %d", mt, p*mean)
	}
}

// TestMeasureAlltoallv: the v-measurement path runs every v-algorithm on
// the simulator and produces positive timings that differ across
// algorithms (i.e. the op kind is actually honored).
func TestMeasureAlltoallv(t *testing.T) {
	t.Parallel()
	secs := map[string]float64{}
	for _, algo := range []string{"pairwise", "node-aware"} {
		pt, err := Measure(Config{
			Machine: tinyDane(), Nodes: 2, PPN: 8,
			Op: core.OpAlltoallv, Algo: algo, Block: 32, Runs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Seconds <= 0 {
			t.Fatalf("%s: non-positive duration %v", algo, pt.Seconds)
		}
		secs[algo] = pt.Seconds
	}
	if secs["pairwise"] == secs["node-aware"] {
		t.Fatalf("identical timings %v: op kind likely ignored", secs)
	}
	// Fixed-size and variable-size measurements of the same shape must
	// cache under different keys.
	k1 := Config{Machine: tinyDane(), Nodes: 2, PPN: 8, Algo: "pairwise", Block: 32, Runs: 1}.Key()
	k2 := Config{Machine: tinyDane(), Nodes: 2, PPN: 8, Op: core.OpAlltoallv, Algo: "pairwise", Block: 32, Runs: 1}.Key()
	if k1 == k2 {
		t.Fatal("cache keys collide across op kinds")
	}
}

// TestConfigKeySeparatesSeeds: the figures run at seed 0 and the snapshot
// sweeps at seed 1 in one process, so configurations that differ only in
// their seed must not share a cache entry.
func TestConfigKeySeparatesSeeds(t *testing.T) {
	t.Parallel()
	cfg := Config{Machine: tinyDane(), Nodes: 2, PPN: 4, Algo: "pairwise", Block: 32, Runs: 1}
	seeded := cfg
	seeded.BaseSeed = 1
	if cfg.Key() == seeded.Key() {
		t.Fatalf("seeds 0 and 1 share the cache key %q", cfg.Key())
	}
}
