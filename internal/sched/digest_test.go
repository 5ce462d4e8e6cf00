package sched

import (
	"strings"
	"testing"

	"alltoallx/internal/topo"
)

// TestDigestMatchesSlice: for every generator, the digest of a rank
// compiled alone equals the digest of the same rank cut from the
// assembled schedule — the equality a world proof's record relies on —
// and both world proofs return exactly those digests.
func TestDigestMatchesSlice(t *testing.T) {
	t.Parallel()
	for _, w := range []struct{ nodes, ppn int }{{0, 2}, {0, 5}, {0, 16}, {4, 8}, {8, 16}} {
		p, m := w.ppn, (*topo.Mapping)(nil)
		if w.nodes > 0 {
			m = gridMapping(t, w.nodes, w.ppn)
			p = m.Size()
		}
		for _, name := range AllGenerators() {
			if p == 128 && name != "torus" && name != "hypercube" {
				continue // the 128-rank world only for the families that route it cheaply
			}
			if strings.HasSuffix(name, "hypercube") && p&(p-1) != 0 {
				continue // no hypercube world at 5 ranks
			}
			s, err := Generate(name, p, m)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			whole, err := ProveSchedule(s)
			if err != nil {
				t.Fatalf("%s p=%d: ProveSchedule: %v", name, p, err)
			}
			streamed, err := ProveWorld(name, p, m)
			if err != nil {
				t.Fatalf("%s p=%d: ProveWorld: %v", name, p, err)
			}
			for r := 0; r < p; r++ {
				sl, err := Slice(s, r)
				if err != nil {
					t.Fatal(err)
				}
				rp, err := GenerateRank(name, p, r, m)
				if err != nil {
					t.Fatalf("%s p=%d rank %d: %v", name, p, r, err)
				}
				if d := rp.Digest(); d != sl.Digest() || d != whole[r] || d != streamed[r] {
					t.Fatalf("%s p=%d (%dx%d) rank %d: GenerateRank, Slice, ProveSchedule and ProveWorld disagree on the digest", name, p, w.nodes, w.ppn, r)
				}
			}
		}
	}
}

// TestDigestSensitivity: changing any one header field or any one step
// field changes the digest, and so does moving a step across a round
// boundary; nil and empty lists, which encode alike, digest alike.
func TestDigestSensitivity(t *testing.T) {
	t.Parallel()
	base := func() *RankProgram {
		return &RankProgram{
			Format: FormatVersion, Name: "x", Ranks: 4, Rank: 1, Coll: CollAlltoallv, Op: "o",
			VSend: []int{1, 2, 3, 4}, VRecv: []int{4, 3, 2, 1}, Scratch: []int{3},
			Rounds: [][]Step{{
				{Kind: SendRecv, To: 2, From: 3, Src: Ref{Buf: 0, Off: 1, N: 2}, Dst: Ref{Buf: 2, Off: 0, N: 2}, Op: "o"},
				{Kind: Copy, Src: Ref{Buf: 2, Off: 0, N: 1}, Dst: Ref{Buf: 1, Off: 1, N: 1}},
			}},
		}
	}
	want := base().Digest()
	for _, tc := range []struct {
		name string
		mut  func(rp *RankProgram)
	}{
		{"format", func(rp *RankProgram) { rp.Format++ }},
		{"name", func(rp *RankProgram) { rp.Name = "y" }},
		{"ranks", func(rp *RankProgram) { rp.Ranks++ }},
		{"rank", func(rp *RankProgram) { rp.Rank++ }},
		{"coll", func(rp *RankProgram) { rp.Coll = CollAlltoall }},
		{"op", func(rp *RankProgram) { rp.Op = "" }},
		{"vsend", func(rp *RankProgram) { rp.VSend[0]++ }},
		{"vrecv", func(rp *RankProgram) { rp.VRecv[3]++ }},
		{"scratch", func(rp *RankProgram) { rp.Scratch = append(rp.Scratch, 1) }},
		{"step kind", func(rp *RankProgram) { rp.Rounds[0][0].Kind = Send }},
		{"step to", func(rp *RankProgram) { rp.Rounds[0][0].To++ }},
		{"step from", func(rp *RankProgram) { rp.Rounds[0][0].From++ }},
		{"step src buf", func(rp *RankProgram) { rp.Rounds[0][0].Src.Buf++ }},
		{"step src off", func(rp *RankProgram) { rp.Rounds[0][0].Src.Off++ }},
		{"step src n", func(rp *RankProgram) { rp.Rounds[0][0].Src.N++ }},
		{"step dst buf", func(rp *RankProgram) { rp.Rounds[0][0].Dst.Buf++ }},
		{"step dst off", func(rp *RankProgram) { rp.Rounds[0][0].Dst.Off++ }},
		{"step dst n", func(rp *RankProgram) { rp.Rounds[0][0].Dst.N++ }},
		{"step op", func(rp *RankProgram) { rp.Rounds[0][0].Op = "p" }},
		{"round boundary", func(rp *RankProgram) { rp.Rounds = [][]Step{rp.Rounds[0][:1], rp.Rounds[0][1:]} }},
		{"empty round", func(rp *RankProgram) { rp.Rounds = append(rp.Rounds, nil) }},
	} {
		rp := base()
		tc.mut(rp)
		if rp.Digest() == want {
			t.Errorf("%s: changing it left the digest unchanged", tc.name)
		}
	}
	a, b := base(), base()
	a.Scratch, b.Scratch = nil, []int{}
	if a.Digest() != b.Digest() {
		t.Error("nil and empty scratch lists digest differently")
	}
}
