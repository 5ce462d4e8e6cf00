package bench

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/trace"
)

// sweepSpec returns the spec of the snapshot sweep id.
func sweepSpec(t *testing.T, id string) Sweep {
	t.Helper()
	for _, s := range sweeps() {
		if s.Exp.ID == id {
			return s
		}
	}
	t.Fatalf("no sweep %q", id)
	return Sweep{}
}

func sampleSweep(t *testing.T) *Sweep {
	s := sweepSpec(t, "regress")
	s.Rows = []Row{
		{Machine: "Dane", Nodes: 4, PPN: 8, Algo: "bruck", X: 4, Seconds: 1e-5, Messages: 320},
		{Machine: "Dane", Nodes: 4, PPN: 8, Algo: "sched:ring", X: 4, Seconds: 3e-5, Messages: 1152,
			Phases: map[trace.Phase]float64{trace.PhaseRepack: 1.5e-6, trace.PhaseTotal: 2.9e-5}},
		{Machine: "Dane", Nodes: 4, PPN: 8, Algo: "bruck", X: 64, Seconds: 2e-5, Messages: 320},
		{Machine: "Dane", Nodes: 4, PPN: 8, Fabric: "ring", Algo: "node-aware", Inner: core.InnerNonblocking,
			PPL: 4, PPG: 2, X: 64, Seconds: 0.000058703989585392326, Messages: 480,
			LinkBlockedSeconds: 2.5e-7, LinkQueuedSeconds: 1.0000000000000002e-6, MaxLinkQueueBytes: 8448},
	}
	return &s
}

// sweepHeader is a snapshot's first line.
type sweepHeader struct {
	Version       int
	Experiment, X string
	Runs          int
	Seed          int64
	Title         string
}

// roundTrip encodes s and checks that the snapshot is a header line, then
// one row per line that decodes back to the row it encodes, at full
// precision. It returns the header.
func roundTrip(t *testing.T, s *Sweep) sweepHeader {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(s.Rows) {
		t.Fatalf("%d lines for %d rows:\n%s", len(lines), len(s.Rows), buf.String())
	}
	var header sweepHeader
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Version != 2 || header.Experiment != s.Exp.ID || header.X != s.Exp.XAxis.String() ||
		header.Runs != s.Scale.Runs || header.Seed != s.Scale.Seed || header.Title == "" {
		t.Errorf("header %s", lines[0])
	}
	for i, line := range lines[1:] {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var r Row
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, s.Rows[i]) {
			t.Errorf("row %d round trip:\nwant %+v\ngot  %+v", i, s.Rows[i], r)
		}
	}
	return header
}

// TestRegressEncodeRoundTrip round-trips the regress sweep's rows: phases,
// options and the flow model's link counters included.
func TestRegressEncodeRoundTrip(t *testing.T) {
	t.Parallel()
	if h := roundTrip(t, sampleSweep(t)); h.Experiment != "regress" || h.X != "msg-size-bytes" || h.Runs != 2 || h.Seed != 1 {
		t.Errorf("regress header %+v", h)
	}
}

// TestScaleArtifactRoundTrip checks the scale snapshot's rows and report
// against a synthetic sweep (running a real one is the CI smoke step's
// job): x is the node count, and a series capped below the sweep's top
// renders a gap, not a zero.
func TestScaleArtifactRoundTrip(t *testing.T) {
	t.Parallel()
	s := sweepSpec(t, "scale")
	s.Rows = []Row{
		{Machine: "Dane", Nodes: 8, PPN: 32, Algo: "pairwise", X: 8, Seconds: 1e-3, Messages: 65280},
		{Machine: "Dane", Nodes: 8, PPN: 32, Algo: "sched:ring", X: 8, Seconds: 2e-3, Messages: 65280},
		{Machine: "Dane", Nodes: 16, PPN: 32, Algo: "pairwise", X: 16, Seconds: 4e-3, Messages: 261632},
	}
	if h := roundTrip(t, &s); h.Experiment != "scale" || h.X != "nodes" || h.Runs != 1 || h.Seed != 1 {
		t.Errorf("scale header %+v", h)
	}
	var buf bytes.Buffer
	if err := s.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Dane", "32 ranks/node", "pairwise", "sched:ring", "algorithm \\ nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "sched:ring") && !strings.HasSuffix(line, " -") {
			t.Errorf("a capped series should render a gap: %q", line)
		}
	}
}

func TestRegressSaveAndFormat(t *testing.T) {
	t.Parallel()
	s := sampleSweep(t)
	path := filepath.Join(t.TempDir(), "BENCH_regress.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Dane", "bruck", "sched:ring", "4 nodes x 8 ranks",
		"node-aware inner=nonblocking ppl=4 ppg=2", "flow model over the ring fabric"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
	// sched:ring has no 64 B point: a gap, not a zero.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "sched:ring") && !strings.HasSuffix(line, " -") {
			t.Errorf("missing point should render as a gap: %q", line)
		}
	}
}

// TestRegressAlgosConstructible: every tracked algorithm must build and
// run at the regression world's shape (32 ranks, a power of two), so a
// registry rename cannot silently break the baseline.
func TestRegressAlgosConstructible(t *testing.T) {
	t.Parallel()
	s := sweepSpec(t, "regress")
	for _, sr := range s.Exp.Series {
		pt, err := Measure(Config{
			Machine: tinyDane(), Nodes: s.Exp.Nodes, PPN: s.Scale.PPN,
			Algo: sr.Algo, Block: 8, Runs: 1, BaseSeed: s.Scale.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Seconds <= 0 {
			t.Fatalf("%s: nonpositive simulated time %g", sr.Algo, pt.Seconds)
		}
	}
}

// TestScaleMethodologyPinned freezes the sweep's fixed methodology: the
// committed BENCH_scale.json is only diffable against reruns if the
// world shapes, block size and seeding never drift silently.
func TestScaleMethodologyPinned(t *testing.T) {
	t.Parallel()
	s := sweepSpec(t, "scale")
	ppn := s.Scale.PPN
	if ppn != 32 || s.Exp.Block != 1024 || s.Scale.Runs != 1 || s.Scale.Seed != 1 || s.Exp.XAxis != XNodes {
		t.Fatalf("scale methodology drifted: ppn=%d block=%d runs=%d seed=%d axis=%s",
			ppn, s.Exp.Block, s.Scale.Runs, s.Scale.Seed, s.Exp.XAxis)
	}
	xs := s.Exp.Xs
	if xs[0]*ppn != 256 || xs[len(xs)-1]*ppn != 4096 {
		t.Fatalf("scale sweep must span 256..4096 ranks, got %v nodes x %d", xs, ppn)
	}
	for _, n := range xs {
		if n&(n-1) != 0 {
			t.Errorf("node count %d not a power of two (hypercube must participate)", n)
		}
	}
	// The headline of the sweep: a schedule-backed algorithm runs at the
	// full 4096 ranks, the point of rank slicing.
	pairwise := false
	for _, sr := range s.Exp.Series {
		if sr.Algo == "sched:pairwise" {
			pairwise = true
			if sr.MaxRanks != 0 {
				t.Errorf("sched:pairwise capped at %d ranks, want the full sweep", sr.MaxRanks)
			}
		}
	}
	if !pairwise {
		t.Error("no sched:pairwise series in the scale sweep")
	}
	for _, m := range netmodel.Machines() {
		if cores := m.Node.CoresPerNode(); cores < ppn {
			t.Errorf("%s has %d cores/node, sweep needs %d", m.Name, cores, ppn)
		}
	}
}

// TestScaleRejectsTinyMaxRanks: a cap below the smallest world is a
// usage error, not an empty snapshot, and the error names that world.
func TestScaleRejectsTinyMaxRanks(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		id       string
		maxRanks int
		smallest string
	}{{"scale", 255, "(256 ranks)"}, {"scale", 100, "(256 ranks)"}, {"scale", 32, "(256 ranks)"},
		{"contention", 7, "(8 ranks)"}} {
		_, err := RunSweep(c.id, c.maxRanks, nil)
		if err == nil {
			t.Errorf("RunSweep(%q, %d) succeeded with no world that fits", c.id, c.maxRanks)
		} else if !strings.Contains(err.Error(), c.smallest) {
			t.Errorf("RunSweep(%q, %d): %v, want the smallest world %s", c.id, c.maxRanks, err, c.smallest)
		}
	}
}

// TestContentionMarksWinners runs the contention sweep's ring family on
// Dane at 512 B, the cell where the flow model flips the winner: the flow
// rows carry the link counters, and the report marks bruck fastest under
// the analytic model and pairwise fastest under the flow model.
func TestContentionMarksWinners(t *testing.T) {
	t.Parallel()
	s := sweepSpec(t, "contention")
	s.Exp.Machine, s.Exp.Xs = "Dane", []int{512}
	var ring []Series
	for _, sr := range s.Exp.Series {
		if sr.Fabric == "ring" || (sr.Fabric == "" && sr.Algo != "sched:torus" && sr.Algo != "sched:hypercube") {
			ring = append(ring, sr)
		}
	}
	s.Exp.Series = ring
	tbl, err := RunExperiment(s.Exp, s.Scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Rows = tbl.Rows
	if len(s.Rows) != 6 {
		t.Fatalf("%d rows, want 3 algorithms x 2 models", len(s.Rows))
	}
	for _, r := range s.Rows {
		counters := r.LinkBlockedSeconds + r.LinkQueuedSeconds + float64(r.MaxLinkQueueBytes)
		if (r.Fabric != "") != (counters > 0) {
			t.Errorf("%s over %q: link counters %+v", r.Algo, r.Fabric, r)
		}
	}
	var buf bytes.Buffer
	if err := s.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	flowTable := out[strings.Index(out, "flow model over the ring fabric"):]
	for algo, mark := range map[string]string{"pairwise": "*", "bruck": "a", "sched:ring": ""} {
		found := false
		for _, line := range strings.Split(flowTable, "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == algo {
				found = true
				if got := strings.TrimLeft(f[1], "0123456789.e+-"); got != mark {
					t.Errorf("%s's cell %q is marked %q, want %q", algo, f[1], got, mark)
				}
			}
		}
		if !found {
			t.Errorf("no %s line in the ring table:\n%s", algo, out)
		}
	}
	for _, want := range []string{"flip at msg-size-bytes 512", "flips (the flow model changes the fastest algorithm): 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSchedScale4096 is the acceptance run: a schedule-backed algorithm
// proves its world, constructs (rank-sliced) and runs at 4096 ranks
// under the simulator — 32x the old schedMaxRanks ceiling. ~1 minute of
// wall time (16.8M simulated messages), so -short skips it.
func TestSchedScale4096(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank simulation (~1 min) skipped in -short mode")
	}
	t.Parallel()
	pt, err := Measure(Config{
		Machine: netmodel.Dane(), Nodes: 128, PPN: 32,
		Algo: "sched:pairwise", Block: 1024, Runs: 1, BaseSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The exchange sends every ordered pair exactly once; Measure's
	// pre-exchange barrier adds its p*log2(p) dissemination messages.
	const p = 4096
	if want := uint64(p*(p-1) + p*12); pt.Stats.Messages != want {
		t.Errorf("messages = %d, want %d (p(p-1) exchange + p*log2(p) barrier)", pt.Stats.Messages, want)
	}
	if pt.Seconds <= 0 {
		t.Errorf("nonpositive simulated time %g", pt.Seconds)
	}
}
