package sched

import (
	"strings"
	"testing"

	"alltoallx/internal/topo"
)

// TestDigestMatchesSlice: for every generator, the digest of a rank
// compiled alone equals the digest of the same rank cut from the
// assembled reference schedule (Slice of Generate) — the equality a
// world proof's record relies on — and both world proofs, Prove and
// ProveWorld, return exactly those digests.
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
			proved, err := Prove(name, p, m)
			if err != nil {
				t.Fatalf("%s p=%d: Prove: %v", name, p, err)
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
				if d := sl.Digest(); d != rp.Digest() || d != proved[r] || d != streamed[r] {
					t.Fatalf("%s p=%d (%dx%d) rank %d: Slice, GenerateRank, Prove and ProveWorld disagree on the digest", name, p, w.nodes, w.ppn, r)
				}
			}
		}
	}
}

// TestProveRanksCeiling: at or below FullProofRanks, ProveRanks returns
// GenerateRank's program for every rank — the programs the full
// verifier checked are the ones ranks run; above the ceiling it proves
// the world by the streamed pass and returns none. A generator's
// refusal comes back as the generator's own error.
func TestProveRanksCeiling(t *testing.T) {
	t.Parallel()
	rps, err := ProveRanks("direct", FullProofRanks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rps) != FullProofRanks {
		t.Fatalf("ProveRanks at the ceiling returned %d programs, want %d", len(rps), FullProofRanks)
	}
	for r, rp := range rps {
		want, err := GenerateRank("direct", FullProofRanks, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Digest() != want.Digest() {
			t.Fatalf("rank %d: ProveRanks' program differs from GenerateRank's", r)
		}
	}
	if rps, err := ProveRanks("direct", FullProofRanks+1, nil); err != nil || rps != nil {
		t.Fatalf("ProveRanks above the ceiling = (%d programs, %v), want (none, nil)", len(rps), err)
	}
	if _, err := ProveRanks("hypercube", 6, nil); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("hypercube at 6 ranks: %v, want the generator's power-of-two refusal", err)
	}
}

// TestProveRanksSeesContent: a generator whose rank 1 sends rank 0 the
// block at the wrong send offset passes the streamed verifier — every
// message still has the right endpoints and length, and the receiver
// cannot name what arrives — but not ProveRanks, whose world driver
// tracks every block's identity. Not parallel: it registers a
// test-only generator in the package-global registry.
func TestProveRanksSeesContent(t *testing.T) {
	const name = "direct-wrong-offset"
	genRegistry[name] = genEntry{coll: CollAlltoall, rank: func(p, r int, m *topo.Mapping) (*RankProgram, error) {
		rp, err := directRank(p, r, m)
		if err == nil && r == 1 {
			for i, st := range rp.Rounds[0] {
				if st.Kind == Send && st.To == 0 {
					rp.Rounds[0][i].Src.Off = 2
				}
			}
		}
		return rp, err
	}}
	t.Cleanup(func() { delete(genRegistry, name) })
	if err := VerifyWorldSliced(name, 4, nil); err != nil {
		t.Fatalf("streamed verifier rejected the wrong offset (%v); this test needs a content-only error", err)
	}
	if _, err := ProveRanks(name, 4, nil); err == nil || !strings.Contains(err.Error(), "failed static verification") {
		t.Fatalf("ProveRanks = %v, want a failed static verification", err)
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
