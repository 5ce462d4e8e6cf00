// Package trace records per-phase timings inside collective algorithms —
// the instrumentation behind the paper's Figures 13-16, which break each
// algorithm into its internal gathers, scatters and intra-/inter-node
// all-to-all exchanges. Each rank records into its own Recorder using the
// communicator's clock (wall time on the live runtime, virtual time in the
// simulator); the bench harness merges recorders across ranks by taking the
// maximum per phase, since a collective phase ends when its slowest rank
// finishes.
package trace

import "sort"

// Phase names one internal stage of an algorithm.
type Phase string

// The phases the paper's breakdown figures report.
const (
	PhaseGather  Phase = "gather"  // intra-node gather to leaders
	PhaseScatter Phase = "scatter" // intra-node scatter from leaders
	PhaseInter   Phase = "inter"   // inter-node (or inter-region) all-to-all
	PhaseIntra   Phase = "intra"   // intra-node (or intra-region) all-to-all
	PhaseRepack  Phase = "repack"  // data repacking between stages
	PhaseReduce  Phase = "reduce"  // operator application in reduction schedules
	PhaseTotal   Phase = "total"   // whole collective
)

// Recorder accumulates phase durations for one rank. A nil Recorder is
// valid and records nothing, so instrumentation can be compiled in
// unconditionally.
type Recorder struct {
	clock   func() float64
	elapsed map[Phase]float64
}

// NewRecorder returns a recorder reading the given clock (seconds).
func NewRecorder(clock func() float64) *Recorder {
	return &Recorder{clock: clock, elapsed: make(map[Phase]float64)}
}

// Reset clears all recorded phases (called at the start of each collective
// so Phases reflects the last call).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for k := range r.elapsed {
		delete(r.elapsed, k)
	}
}

// Timer is one running phase timing, returned by Recorder.Time. It is a
// value, so timing a phase allocates nothing.
type Timer struct {
	r  *Recorder
	p  Phase
	t0 float64
}

// Time starts timing a phase; the returned Timer's Stop accumulates the
// elapsed time into the phase's total:
//
//	defer rec.Time(trace.PhaseGather).Stop()
func (r *Recorder) Time(p Phase) Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{r: r, p: p, t0: r.clock()}
}

// Stop ends the timing. A Timer from a nil Recorder records nothing.
func (t Timer) Stop() {
	if t.r == nil {
		return
	}
	t.r.elapsed[t.p] += t.r.clock() - t.t0
}

// Add accumulates d seconds into a phase directly.
func (r *Recorder) Add(p Phase, d float64) {
	if r == nil {
		return
	}
	r.elapsed[p] += d
}

// Get returns the accumulated seconds for a phase (0 if absent or nil).
func (r *Recorder) Get(p Phase) float64 {
	if r == nil {
		return 0
	}
	return r.elapsed[p]
}

// Snapshot returns a copy of all recorded phases.
func (r *Recorder) Snapshot() map[Phase]float64 {
	if r == nil {
		return nil
	}
	out := make(map[Phase]float64, len(r.elapsed))
	for k, v := range r.elapsed {
		out[k] = v
	}
	return out
}

// MaxMerge combines per-rank snapshots by taking the per-phase maximum: a
// collective phase is as slow as its slowest rank.
func MaxMerge(snaps []map[Phase]float64) map[Phase]float64 {
	out := make(map[Phase]float64)
	for _, s := range snaps {
		for k, v := range s {
			if v > out[k] {
				out[k] = v
			}
		}
	}
	return out
}

// SortedPhases returns the phases of a merged snapshot in stable name
// order, for deterministic report formatting.
func SortedPhases(m map[Phase]float64) []Phase {
	out := make([]Phase, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
