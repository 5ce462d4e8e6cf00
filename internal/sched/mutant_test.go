package sched

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoallx/internal/netmodel"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
)

// mutantsPerBase is the number of seeded mutants drawn from each
// generator's world.
const mutantsPerBase = 300

// mutantSeeds is each generator's mutant seed: its index, plus one, in
// the sorted generator list that also held the six reduction generators
// before they were removed, so that every verdict in mutants.golden
// kept its line.
var mutantSeeds = map[string]int64{"bruck": 4, "direct": 5, "hypercube": 6, "pairwise": 7, "ring": 8, "torus": 12}

// mutantBase is one verified world the mutants are drawn from, with the
// seed its mutants are drawn with.
type mutantBase struct {
	name  string
	world []*RankProgram
	seed  int64
}

// mutantBases returns every generator's world at 8 ranks.
func mutantBases(t *testing.T) []mutantBase {
	var bases []mutantBase
	for _, name := range Generators() {
		seed, ok := mutantSeeds[name]
		if !ok {
			t.Fatalf("generator %s has no mutant seed", name)
		}
		bases = append(bases, mutantBase{name, mustGen(t, name, 8), seed})
	}
	return bases
}

// stepPos locates one step of a world: step si of rank r's round ri.
type stepPos struct{ ri, r, si int }

// mutantEdits are the nine edits a mutant applies, by name. Each returns
// false when the world has no step it applies to.
var mutantEdits = []struct {
	name  string
	apply func(w []*RankProgram, rng *rand.Rand) bool
}{
	{"to", func(w []*RankProgram, rng *rand.Rand) bool {
		st := pickStep(w, rng, func(st Step) bool { return st.Kind == Send || st.Kind == SendRecv })
		if st != nil {
			st.To = int32((int(st.To) + 1 + rng.Intn(len(w)-1)) % len(w))
		}
		return st != nil
	}},
	{"from", func(w []*RankProgram, rng *rand.Rand) bool {
		st := pickStep(w, rng, func(st Step) bool { return st.Kind == Recv || st.Kind == SendRecv })
		if st != nil {
			st.From = int32((int(st.From) + 1 + rng.Intn(len(w)-1)) % len(w))
		}
		return st != nil
	}},
	{"round", func(w []*RankProgram, rng *rand.Rand) bool {
		pos, ok := pickPos(w, rng, func(Step) bool { return true })
		rounds := w[pos.r].Rounds
		if !ok || len(rounds) < 2 {
			return false
		}
		to := pos.ri + 1
		if to == len(rounds) || (pos.ri > 0 && rng.Intn(2) == 0) {
			to = pos.ri - 1
		}
		steps := rounds[pos.ri]
		st := steps[pos.si]
		rounds[pos.ri] = append(steps[:pos.si], steps[pos.si+1:]...)
		dst := rounds[to]
		k := min(pos.si, len(dst))
		rounds[to] = append(dst[:k], append([]Step{st}, dst[k:]...)...)
		return true
	}},
	{"offset", func(w []*RankProgram, rng *rand.Rand) bool {
		ref := pickRef(w, rng)
		if ref != nil {
			ref.Off += int32(2*rng.Intn(2) - 1)
		}
		return ref != nil
	}},
	{"length", func(w []*RankProgram, rng *rand.Rand) bool {
		ref := pickRef(w, rng)
		if ref != nil {
			ref.N--
		}
		return ref != nil
	}},
	{"dup", func(w []*RankProgram, rng *rand.Rand) bool {
		pos, ok := pickPos(w, rng, func(Step) bool { return true })
		if ok {
			steps := w[pos.r].Rounds[pos.ri]
			w[pos.r].Rounds[pos.ri] = append(steps[:pos.si+1], steps[pos.si:]...)
		}
		return ok
	}},
	{"drop", func(w []*RankProgram, rng *rand.Rand) bool {
		pos, ok := pickPos(w, rng, func(Step) bool { return true })
		if ok {
			steps := w[pos.r].Rounds[pos.ri]
			w[pos.r].Rounds[pos.ri] = append(steps[:pos.si], steps[pos.si+1:]...)
		}
		return ok
	}},
	{"swap", func(w []*RankProgram, rng *rand.Rand) bool {
		var lists []stepPos
		for ri := range w[0].Rounds {
			for r, rp := range w {
				if len(rp.Rounds[ri]) >= 2 {
					lists = append(lists, stepPos{ri, r, 0})
				}
			}
		}
		if len(lists) == 0 {
			return false
		}
		l := lists[rng.Intn(len(lists))]
		steps := w[l.r].Rounds[l.ri]
		i := rng.Intn(len(steps))
		j := (i + 1 + rng.Intn(len(steps)-1)) % len(steps)
		steps[i], steps[j] = steps[j], steps[i]
		return true
	}},
	{"cut", func(w []*RankProgram, rng *rand.Rand) bool {
		st := pickStep(w, rng, func(st Step) bool { return st.Kind == SendRecv })
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

// pickPos draws the position of a uniformly random step satisfying ok,
// numbering the world's steps round by round, then rank by rank.
func pickPos(w []*RankProgram, rng *rand.Rand, ok func(Step) bool) (stepPos, bool) {
	var all []stepPos
	for ri := range w[0].Rounds {
		for r, rp := range w {
			for si, st := range rp.Rounds[ri] {
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
func pickStep(w []*RankProgram, rng *rand.Rand, ok func(Step) bool) *Step {
	pos, found := pickPos(w, rng, ok)
	if !found {
		return nil
	}
	return &w[pos.r].Rounds[pos.ri][pos.si]
}

// pickRef draws a random step and one of the buffer operands its kind
// uses.
func pickRef(w []*RankProgram, rng *rand.Rand) *Ref {
	st := pickStep(w, rng, func(st Step) bool { return st.Kind != 0 })
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

// cloneWorld deep-copies the step lists so a mutant never edits its
// base; header slices are shared, since no edit touches them.
func cloneWorld(w []*RankProgram) []*RankProgram {
	c := make([]*RankProgram, len(w))
	for r, rp := range w {
		cp := *rp
		cp.Rounds = make([][]Step, len(rp.Rounds))
		for ri, steps := range rp.Rounds {
			cp.Rounds[ri] = append([]Step(nil), steps...)
		}
		c[r] = &cp
	}
	return c
}

// programsPassVerifyRank runs VerifyRank on every program of the world.
func programsPassVerifyRank(w []*RankProgram) error {
	for _, rp := range w {
		if err := VerifyRank(rp); err != nil {
			return err
		}
	}
	return nil
}

// TestVerifierMutants is the differential soundness check of the
// verifier's two drivers: seeded single-edit mutants of every
// generator's world. Every mutant VerifyWorld (the world driver)
// accepts must have every program pass VerifyRank (the lone driver) and
// move the right bytes on the simulator (a deadlock fails too), and the
// verdict of every mutant must match testdata/mutants.golden: "rejected
// by both" when some program fails VerifyRank too, "rejected by Verify
// only" when only the world driver sees the defect. A change that makes
// either driver accept or reject a different set of mutants shows up as
// a diff. Regenerate with -update.
func TestVerifierMutants(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	var out strings.Builder
	accepted := 0
	for _, b := range mutantBases(t) {
		if err := VerifyWorld(b.world); err != nil {
			t.Fatalf("%s: base world rejected: %v", b.name, err)
		}
		p := len(b.world)
		model.Node = topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: p / 2}
		rng := rand.New(rand.NewSource(b.seed))
		for i := 0; i < mutantsPerBase; i++ {
			m := cloneWorld(b.world)
			edit := mutantEdits[rng.Intn(len(mutantEdits))]
			for !edit.apply(m, rng) {
				edit = mutantEdits[rng.Intn(len(mutantEdits))]
			}
			verr, serr := VerifyWorld(m), programsPassVerifyRank(m)
			verdict := "rejected by both"
			switch {
			case verr == nil:
				verdict = "accepted"
				accepted++
				if serr != nil {
					t.Errorf("%s mutant %d (%s): VerifyWorld accepts, VerifyRank rejects a program: %v", b.name, i, edit.name, serr)
				}
				cfg := sim.ClusterConfig{Model: model, Nodes: 2, PPN: p / 2, Seed: 1}
				if _, err := sim.RunCluster(cfg, execBody(m, 3)); err != nil {
					t.Errorf("%s mutant %d (%s): VerifyWorld accepts, the simulator run fails: %v", b.name, i, edit.name, err)
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
