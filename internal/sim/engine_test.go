package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventHeapOrdering(t *testing.T) {
	t.Parallel()
	// Property: events pop in (time, seq) order for arbitrary inserts.
	f := func(raw []uint16) bool {
		var h eventHeap
		for i, r := range raw {
			h.push(event{t: float64(r % 100), seq: uint64(i)})
		}
		var last event
		first := true
		for len(h) > 0 {
			ev := h.pop()
			if !first && less(ev, last) {
				return false
			}
			last, first = ev, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEngineRunsEventsInOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var got []float64
	times := []float64{5, 1, 3, 2, 4, 1} // duplicate time keeps seq order
	for _, tm := range times {
		tm := tm
		e.At(tm, func() { got = append(got, tm) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), times...)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if e.EventsProcessed() != uint64(len(times)) {
		t.Errorf("EventsProcessed = %d", e.EventsProcessed())
	}
}

func TestProcAdvanceAndSleep(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var finalNow float64
	e.Spawn(0, func(p *Proc) error {
		p.Advance(1.5)
		p.SleepUntil(3.0)
		p.SleepUntil(2.0) // past: no-op
		p.Sync()
		finalNow = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if finalNow != 3.0 {
		t.Errorf("final proc time = %g, want 3.0", finalNow)
	}
}

func TestProcAdvanceNegativePanics(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.Spawn(0, func(p *Proc) error {
		p.Advance(-1)
		return nil
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("negative Advance not caught: %v", err)
	}
}

func TestTwoProcsInterleaveByVirtualTime(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var order []int
	for i := 0; i < 2; i++ {
		id := i
		e.Spawn(id, func(p *Proc) error {
			// Proc 0 acts at t=0, 2, 4...; proc 1 at t=1, 3, 5...
			p.Advance(float64(id))
			for k := 0; k < 3; k++ {
				p.Sync()
				order = append(order, id)
				p.SleepUntil(p.Now() + 2)
			}
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 1, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.Spawn(0, func(p *Proc) error {
		p.Park("waiting for godot")
		return nil
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "godot") {
		t.Fatalf("deadlock diagnosis missing: %v", err)
	}
}

func TestProcErrorStopsRun(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	boom := errors.New("boom")
	e.Spawn(0, func(p *Proc) error { return boom })
	e.Spawn(1, func(p *Proc) error {
		p.SleepUntil(100)
		return nil
	})
	err := e.Run()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("proc error not propagated: %v", err)
	}
}

func TestEngineFail(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	bad := errors.New("invariant broken")
	e.At(1, func() { e.Fail(bad) })
	e.At(2, func() { t.Error("event after Fail executed") })
	if err := e.Run(); !errors.Is(err, bad) {
		t.Fatalf("Fail not propagated: %v", err)
	}
}

func TestWakeAtAdvancesClock(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var woken float64
	p := e.Spawn(0, func(p *Proc) error {
		p.Park("test wake")
		woken = p.Now()
		return nil
	})
	e.At(0.5, func() { e.WakeAt(p, 7.0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 7.0 {
		t.Errorf("woken at %g, want 7.0", woken)
	}
}

// TestWakeAtTwiceFails: a process owns one wake record, so a second wake
// queued before the first fires must fail the run, naming the process,
// instead of resuming it later from whatever park comes next.
func TestWakeAtTwiceFails(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	resumed := 0
	p := e.Spawn(3, func(p *Proc) error {
		p.Park("first")
		resumed++
		p.Park("second")
		resumed++
		return nil
	})
	e.At(0.5, func() {
		e.WakeAt(p, 1)
		e.WakeAt(p, 2)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "proc 3") || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("double wake: err = %v, want a failure naming proc 3's pending wake", err)
	}
	if resumed != 0 {
		t.Errorf("process resumed %d times after the run failed", resumed)
	}
}

func TestAtClampsPast(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var times []float64
	e.At(5, func() {
		e.At(1, func() { times = append(times, e.Now()) }) // past: clamped to 5
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 1 || times[0] != 5 {
		t.Errorf("clamped event times = %v", times)
	}
}

// TestManyProcsDeterministic: a randomized workload must replay exactly.
func TestManyProcsDeterministic(t *testing.T) {
	t.Parallel()
	run := func(seed int64) []float64 {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		finals := make([]float64, 8)
		delays := make([][]float64, 8)
		for i := range delays {
			delays[i] = make([]float64, 50)
			for k := range delays[i] {
				delays[i][k] = rng.Float64() * 1e-3
			}
		}
		for i := 0; i < 8; i++ {
			id := i
			e.Spawn(id, func(p *Proc) error {
				for _, d := range delays[id] {
					p.Advance(d)
					p.Sync()
				}
				finals[id] = p.Now()
				return nil
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return finals
	}
	a, b := run(1), run(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic replay: %v vs %v", a, b)
		}
	}
	if fmt.Sprint(run(1)) == fmt.Sprint(run(2)) {
		t.Log("different seeds coincided (allowed, but suspicious)")
	}
}
