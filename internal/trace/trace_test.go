package trace

import (
	"testing"
)

func TestRecorderAccumulates(t *testing.T) {
	t.Parallel()
	now := 0.0
	r := NewRecorder(func() float64 { return now })
	timer := r.Time(PhaseGather)
	now = 2.5
	timer.Stop()
	timer = r.Time(PhaseGather)
	now = 3.0
	timer.Stop()
	if got := r.Get(PhaseGather); got != 3.0 {
		t.Errorf("accumulated gather = %g, want 3.0", got)
	}
	r.Add(PhaseInter, 1.25)
	if got := r.Get(PhaseInter); got != 1.25 {
		t.Errorf("Add: %g", got)
	}
	snap := r.Snapshot()
	if snap[PhaseGather] != 3.0 || snap[PhaseInter] != 1.25 {
		t.Errorf("snapshot = %v", snap)
	}
	// Snapshot must be a copy.
	snap[PhaseGather] = 99
	if r.Get(PhaseGather) != 3.0 {
		t.Error("snapshot aliases recorder state")
	}
	r.Reset()
	if r.Get(PhaseGather) != 0 {
		t.Error("reset did not clear")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	t.Parallel()
	var r *Recorder
	r.Reset()
	r.Time(PhaseTotal).Stop()
	r.Add(PhaseIntra, 1)
	if r.Get(PhaseIntra) != 0 || r.Snapshot() != nil {
		t.Error("nil recorder misbehaved")
	}
}

// TestTimeAllocatesNothing: timing a phase is on every collective's hot
// path (six timed phases per node-aware call), so a Time/Stop pair must
// not allocate, on a live Recorder or a nil one.
func TestTimeAllocatesNothing(t *testing.T) {
	now := 0.0
	r := NewRecorder(func() float64 { now++; return now })
	var none *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Time(PhaseGather).Stop()
		none.Time(PhaseGather).Stop()
	})
	if allocs != 0 {
		t.Errorf("a Time/Stop pair allocates %.2f times, want 0", allocs)
	}
	if got := r.Get(PhaseGather); got != 101 {
		t.Errorf("accumulated gather = %g over 101 pairs, want 101", got)
	}
}

func TestMaxMerge(t *testing.T) {
	t.Parallel()
	merged := MaxMerge([]map[Phase]float64{
		{PhaseGather: 1, PhaseInter: 5},
		{PhaseGather: 3, PhaseIntra: 2},
		nil,
	})
	if merged[PhaseGather] != 3 || merged[PhaseInter] != 5 || merged[PhaseIntra] != 2 {
		t.Errorf("merged = %v", merged)
	}
}

func TestSortedPhases(t *testing.T) {
	t.Parallel()
	phases := SortedPhases(map[Phase]float64{PhaseTotal: 1, PhaseGather: 2, PhaseInter: 3})
	want := []Phase{PhaseGather, PhaseInter, PhaseTotal}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", phases, want)
		}
	}
}
