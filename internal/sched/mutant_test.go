package sched

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
)

// mutantsPerBase is the number of seeded mutants drawn from each
// generator's schedule.
const mutantsPerBase = 300

// mutantBase is one verified schedule the mutants are drawn from, with
// the simulator body that checks the bytes a mutant delivers.
type mutantBase struct {
	name string
	s    *Schedule
	body func(s *Schedule) func(c comm.Comm) error
}

// mutantBases returns every generator's schedule at 8 ranks.
func mutantBases(t *testing.T) []mutantBase {
	var bases []mutantBase
	for _, name := range AllGenerators() {
		s, err := Generate(name, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		body := func(s *Schedule) func(c comm.Comm) error { return execBody(s, 3) }
		if s.Collective().reduction() {
			body = func(s *Schedule) func(c comm.Comm) error {
				return reduceExecBody(s, 2, sumI64, func(a, b int64) int64 { return a + b })
			}
		}
		bases = append(bases, mutantBase{name, s, body})
	}
	return bases
}

// stepPos locates one step of a schedule.
type stepPos struct{ ri, r, si int }

// mutantEdits are the nine edits a mutant applies, by name. Each returns
// false when the schedule has no step it applies to.
var mutantEdits = []struct {
	name  string
	apply func(s *Schedule, rng *rand.Rand) bool
}{
	{"to", func(s *Schedule, rng *rand.Rand) bool {
		st := pickStep(s, rng, func(st Step) bool { return st.Kind == Send || st.Kind == SendRecv })
		if st != nil {
			st.To = int32((int(st.To) + 1 + rng.Intn(s.Ranks-1)) % s.Ranks)
		}
		return st != nil
	}},
	{"from", func(s *Schedule, rng *rand.Rand) bool {
		st := pickStep(s, rng, func(st Step) bool { return st.Kind == Recv || st.Kind == SendRecv })
		if st != nil {
			st.From = int32((int(st.From) + 1 + rng.Intn(s.Ranks-1)) % s.Ranks)
		}
		return st != nil
	}},
	{"round", func(s *Schedule, rng *rand.Rand) bool {
		pos, ok := pickPos(s, rng, func(Step) bool { return true })
		if !ok || len(s.Rounds) < 2 {
			return false
		}
		to := pos.ri + 1
		if to == len(s.Rounds) || (pos.ri > 0 && rng.Intn(2) == 0) {
			to = pos.ri - 1
		}
		steps := s.Rounds[pos.ri].Steps[pos.r]
		st := steps[pos.si]
		s.Rounds[pos.ri].Steps[pos.r] = append(steps[:pos.si], steps[pos.si+1:]...)
		dst := s.Rounds[to].Steps[pos.r]
		k := min(pos.si, len(dst))
		s.Rounds[to].Steps[pos.r] = append(dst[:k], append([]Step{st}, dst[k:]...)...)
		return true
	}},
	{"offset", func(s *Schedule, rng *rand.Rand) bool {
		ref := pickRef(s, rng)
		if ref != nil {
			ref.Off += int32(2*rng.Intn(2) - 1)
		}
		return ref != nil
	}},
	{"length", func(s *Schedule, rng *rand.Rand) bool {
		ref := pickRef(s, rng)
		if ref != nil {
			ref.N--
		}
		return ref != nil
	}},
	{"dup", func(s *Schedule, rng *rand.Rand) bool {
		pos, ok := pickPos(s, rng, func(Step) bool { return true })
		if ok {
			steps := s.Rounds[pos.ri].Steps[pos.r]
			s.Rounds[pos.ri].Steps[pos.r] = append(steps[:pos.si+1], steps[pos.si:]...)
		}
		return ok
	}},
	{"drop", func(s *Schedule, rng *rand.Rand) bool {
		pos, ok := pickPos(s, rng, func(Step) bool { return true })
		if ok {
			steps := s.Rounds[pos.ri].Steps[pos.r]
			s.Rounds[pos.ri].Steps[pos.r] = append(steps[:pos.si], steps[pos.si+1:]...)
		}
		return ok
	}},
	{"swap", func(s *Schedule, rng *rand.Rand) bool {
		var lists []stepPos
		for ri, rd := range s.Rounds {
			for r, steps := range rd.Steps {
				if len(steps) >= 2 {
					lists = append(lists, stepPos{ri, r, 0})
				}
			}
		}
		if len(lists) == 0 {
			return false
		}
		l := lists[rng.Intn(len(lists))]
		steps := s.Rounds[l.ri].Steps[l.r]
		i := rng.Intn(len(steps))
		j := (i + 1 + rng.Intn(len(steps)-1)) % len(steps)
		steps[i], steps[j] = steps[j], steps[i]
		return true
	}},
	{"cut", func(s *Schedule, rng *rand.Rand) bool {
		st := pickStep(s, rng, func(st Step) bool { return st.Kind == SendRecv })
		switch {
		case st == nil:
			return false
		case rng.Intn(2) == 0:
			*st = Step{Kind: Send, To: st.To, Src: st.Src}
		default:
			*st = Step{Kind: Recv, From: st.From, Dst: st.Dst}
		}
		return true
	}},
}

// pickPos draws the position of a uniformly random step satisfying ok.
func pickPos(s *Schedule, rng *rand.Rand, ok func(Step) bool) (stepPos, bool) {
	var all []stepPos
	for ri, rd := range s.Rounds {
		for r, steps := range rd.Steps {
			for si, st := range steps {
				if ok(st) {
					all = append(all, stepPos{ri, r, si})
				}
			}
		}
	}
	if len(all) == 0 {
		return stepPos{}, false
	}
	return all[rng.Intn(len(all))], true
}

// pickStep draws a uniformly random step satisfying ok, or nil.
func pickStep(s *Schedule, rng *rand.Rand, ok func(Step) bool) *Step {
	pos, found := pickPos(s, rng, ok)
	if !found {
		return nil
	}
	return &s.Rounds[pos.ri].Steps[pos.r][pos.si]
}

// pickRef draws a random step and one of the buffer operands its kind
// uses.
func pickRef(s *Schedule, rng *rand.Rand) *Ref {
	st := pickStep(s, rng, func(st Step) bool { return st.Kind != 0 })
	if st == nil {
		return nil
	}
	switch {
	case st.Kind == Send:
		return &st.Src
	case st.Kind == Recv:
		return &st.Dst
	case rng.Intn(2) == 0:
		return &st.Src
	}
	return &st.Dst
}

// cloneSchedule deep-copies the step lists so a mutant never edits its
// base; header slices are shared, since no edit touches them.
func cloneSchedule(s *Schedule) *Schedule {
	c := *s
	c.Rounds = make([]Round, len(s.Rounds))
	for ri, rd := range s.Rounds {
		c.Rounds[ri].Steps = make([][]Step, len(rd.Steps))
		for r, steps := range rd.Steps {
			c.Rounds[ri].Steps[r] = append([]Step(nil), steps...)
		}
	}
	return &c
}

// slicesPassVerifyRank runs VerifyRank on every rank's slice of s.
func slicesPassVerifyRank(s *Schedule) error {
	for r := 0; r < s.Ranks; r++ {
		rp, err := Slice(s, r)
		if err != nil {
			return err
		}
		if err := VerifyRank(rp); err != nil {
			return err
		}
	}
	return nil
}

// TestVerifierMutants is the differential soundness check of the
// verifier's two drivers: seeded single-edit mutants of every
// generator's schedule. Every mutant Verify (the world driver) accepts
// must have every slice pass VerifyRank (the lone driver) and move the
// right bytes on the simulator (a deadlock fails too), and the verdict
// of every mutant must match testdata/mutants.golden: "rejected by
// both" when some slice fails VerifyRank too, "rejected by Verify only"
// when only the world sees the defect. A change that makes either driver
// accept or reject a different set of mutants shows up as a diff.
// Regenerate with -update.
func TestVerifierMutants(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	var out strings.Builder
	accepted := 0
	for bi, b := range mutantBases(t) {
		if err := Verify(b.s); err != nil {
			t.Fatalf("%s: base schedule rejected: %v", b.name, err)
		}
		model.Node = topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: b.s.Ranks / 2}
		rng := rand.New(rand.NewSource(int64(bi + 1)))
		for i := 0; i < mutantsPerBase; i++ {
			m := cloneSchedule(b.s)
			edit := mutantEdits[rng.Intn(len(mutantEdits))]
			for !edit.apply(m, rng) {
				edit = mutantEdits[rng.Intn(len(mutantEdits))]
			}
			verr, serr := Verify(m), slicesPassVerifyRank(m)
			verdict := "rejected by both"
			switch {
			case verr == nil:
				verdict = "accepted"
				accepted++
				if serr != nil {
					t.Errorf("%s mutant %d (%s): Verify accepts, VerifyRank rejects a slice: %v", b.name, i, edit.name, serr)
				}
				cfg := sim.ClusterConfig{Model: model, Nodes: 2, PPN: b.s.Ranks / 2, Seed: 1}
				if _, err := sim.RunCluster(cfg, b.body(m)); err != nil {
					t.Errorf("%s mutant %d (%s): Verify accepts, the simulator run fails: %v", b.name, i, edit.name, err)
				}
			case serr == nil:
				verdict = "rejected by Verify only"
			}
			fmt.Fprintf(&out, "%s %d %s: %s\n", b.name, i, edit.name, verdict)
		}
	}
	t.Logf("%d mutants accepted", accepted)
	path := filepath.Join("testdata", "mutants.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i, w := range wl {
			g := ""
			if i < len(gl) {
				g = gl[i]
			}
			if g != w {
				t.Fatalf("mutant verdicts drifted from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
		t.Fatalf("mutant verdicts drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
