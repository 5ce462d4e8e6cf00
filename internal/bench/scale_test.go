package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"alltoallx/internal/netmodel"
)

// TestScaleMethodologyPinned freezes the sweep's fixed methodology: the
// committed BENCH_scale.json is only diffable against reruns if the
// world shapes, block size and seeding never drift silently.
func TestScaleMethodologyPinned(t *testing.T) {
	t.Parallel()
	if scalePPN != 32 || scaleBlock != 1024 || scaleRuns != 1 || scaleSeed != 1 {
		t.Fatalf("scale methodology drifted: ppn=%d block=%d runs=%d seed=%d", scalePPN, scaleBlock, scaleRuns, scaleSeed)
	}
	pts := scaleRankPoints()
	if pts[0] != 256 || pts[len(pts)-1] != 4096 {
		t.Fatalf("scale sweep must span 256..4096 ranks, got %v", pts)
	}
	for _, p := range pts {
		if p&(p-1) != 0 {
			t.Errorf("rank point %d not a power of two (hypercube must participate)", p)
		}
		if p%scalePPN != 0 {
			t.Errorf("rank point %d not divisible by ppn %d", p, scalePPN)
		}
	}
	caps := scaleAlgos()
	byAlgo := make(map[string]int, len(caps))
	for _, a := range caps {
		byAlgo[a.Algo] = a.Cap
	}
	// The headline of the sweep: at least one schedule-backed algorithm
	// runs at the full 4096 ranks — the point of rank slicing.
	if byAlgo["sched:pairwise"] != 4096 {
		t.Errorf("sched:pairwise capped at %d, want the full 4096", byAlgo["sched:pairwise"])
	}
	for _, m := range netmodel.Machines() {
		if cores := m.Node.CoresPerNode(); cores < scalePPN {
			t.Errorf("%s has %d cores/node, sweep needs %d", m.Name, cores, scalePPN)
		}
	}
}

// TestScaleArtifactRoundTrip checks the snapshot format and the Format
// renderer against a synthetic sweep (running a real one is the CI smoke
// step's job).
func TestScaleArtifactRoundTrip(t *testing.T) {
	t.Parallel()
	s := &Scaling{
		Version: ScaleVersion, Runs: scaleRuns, Seed: scaleSeed, Block: scaleBlock, MaxRanks: 512,
		Machines: []ScaleMachine{{
			Machine: "Dane", PPN: scalePPN,
			Series: []ScaleSeries{
				{Algo: "pairwise", Points: []ScalePoint{{Ranks: 256, Seconds: 1e-3, Messages: 65280}, {Ranks: 512, Seconds: 4e-3, Messages: 261632}}},
				{Algo: "sched:ring", Points: []ScalePoint{{Ranks: 256, Seconds: 2e-3, Messages: 65280}}},
			},
		}},
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back Scaling
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != ScaleVersion || len(back.Machines) != 1 || len(back.Machines[0].Series) != 2 {
		t.Fatalf("round trip mangled: %+v", back)
	}
	var txt bytes.Buffer
	if err := s.Format(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"Dane", "pairwise", "sched:ring", "256", "512"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	// A series capped below the sweep top renders a gap, not a zero.
	if !strings.Contains(out, "—") {
		t.Errorf("capped series should render a gap marker:\n%s", out)
	}
}

// TestScaleRejectsTinyMaxRanks: a cap below the smallest point is a
// usage error, not an empty artifact.
func TestScaleRejectsTinyMaxRanks(t *testing.T) {
	t.Parallel()
	if _, err := RunScale(100, nil); err == nil {
		t.Fatal("RunScale(100) succeeded with no sweepable points")
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
