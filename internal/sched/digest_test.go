package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoallx/internal/topo"
)

// TestDigestMatchesSlice: for every generator, the digest of a rank
// compiled alone equals the digest of the same rank's program read back
// from its world file (DecodeWorld of EncodeWorld) — so a world file
// holds exactly the programs a proof record names — and the world
// proof, Prove, returns exactly those digests.
func TestDigestMatchesSlice(t *testing.T) {
	t.Parallel()
	for _, w := range []struct{ nodes, ppn int }{{0, 2}, {0, 5}, {0, 16}, {4, 8}, {8, 16}} {
		p, m := w.ppn, (*topo.Mapping)(nil)
		if w.nodes > 0 {
			m = gridMapping(t, w.nodes, w.ppn)
			p = m.Size()
		}
		for _, name := range Generators() {
			if p == 128 && name != "torus" && name != "hypercube" {
				continue // the 128-rank world only for the families that route it cheaply
			}
			if name == "hypercube" && p&(p-1) != 0 {
				continue // no hypercube world at 5 ranks
			}
			world, err := GenerateWorld(name, p, m)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			var buf bytes.Buffer
			if err := EncodeWorld(&buf, world); err != nil {
				t.Fatal(err)
			}
			if world, err = DecodeWorld(&buf); err != nil {
				t.Fatal(err)
			}
			proved, err := Prove(name, p, m)
			if err != nil {
				t.Fatalf("%s p=%d: Prove: %v", name, p, err)
			}
			for r := 0; r < p; r++ {
				rp, err := GenerateRank(name, p, r, m)
				if err != nil {
					t.Fatalf("%s p=%d rank %d: %v", name, p, r, err)
				}
				if d := world[r].Digest(); d != rp.Digest() || d != proved[r] {
					t.Fatalf("%s p=%d (%dx%d) rank %d: the world file, GenerateRank and Prove disagree on the digest", name, p, w.nodes, w.ppn, r)
				}
			}
		}
	}
}

// TestProveHasNoCeiling: on both sides of 128 ranks, where the proof
// once changed drivers, Prove returns the digest of GenerateRank's
// program for every rank, and a generator's refusal comes back as the
// generator's own error.
func TestProveHasNoCeiling(t *testing.T) {
	t.Parallel()
	for _, p := range []int{128, 129} {
		ds, err := Prove("direct", p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != p {
			t.Fatalf("Prove at %d ranks returned %d digests", p, len(ds))
		}
		for r, d := range ds {
			rp, err := GenerateRank("direct", p, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d != rp.Digest() {
				t.Fatalf("p=%d rank %d: Prove's digest differs from GenerateRank's program", p, r)
			}
		}
	}
	if _, err := Prove("hypercube", 6, nil); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("hypercube at 6 ranks: %v, want the generator's power-of-two refusal", err)
	}
}

// registerWrongOffset registers, until t ends, the generator name: the
// direct exchange, except that rank 1 sends rank 0 the block at send
// offset 2. Every message keeps its endpoints and length, so only a
// proof that tracks which block each message carries rejects it. Its
// callers must not be parallel: the registry is a package global.
func registerWrongOffset(t testing.TB, name string) {
	genRegistry[name] = func(p, r int, m *topo.Mapping) (*source, error) {
		src, err := directSource(p, r, m)
		if err != nil || r != 1 {
			return src, err
		}
		direct := src.phases[0].round
		src.phases[0].round = func(t int, steps []Step) []Step {
			steps = direct(t, steps)
			for i, st := range steps {
				if st.Kind == Send && st.To == 0 {
					steps[i].Src.Off = 2
				}
			}
			return steps
		}
		return src, nil
	}
	t.Cleanup(func() { delete(genRegistry, name) })
}

// TestDigestSensitivity: changing any one header field or any one step
// field changes the digest, and so does moving a step across a round
// boundary; nil and empty lists, which encode alike, digest alike.
func TestDigestSensitivity(t *testing.T) {
	t.Parallel()
	base := func() *RankProgram {
		return &RankProgram{
			Format: FormatVersion, Name: "x", Ranks: 4, Rank: 1, Coll: CollAlltoall,
			Scratch: []int{3},
			Rounds: [][]Step{{
				{Kind: SendRecv, To: 2, From: 3, Src: Ref{Buf: 0, Off: 1, N: 2}, Dst: Ref{Buf: 2, Off: 0, N: 2}},
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
		{"coll", func(rp *RankProgram) { rp.Coll = "" }},
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

// goldenWorld is one world digests.golden pins: a generator on nodes x
// ppn ranks (nodes 0: a flat world of ppn ranks).
type goldenWorld struct {
	name       string
	nodes, ppn int
}

// String is the world's key in digests.golden: the generator, then the
// rank count or the nodes x ppn grid.
func (w goldenWorld) String() string {
	if w.nodes == 0 {
		return fmt.Sprintf("%s %d", w.name, w.ppn)
	}
	return fmt.Sprintf("%s %dx%d", w.name, w.nodes, w.ppn)
}

// goldenWorlds lists the worlds digests.golden pins: every generator at
// 1, 2, 5, 8 and 16 flat ranks (hypercube at powers of two only), torus
// on 3x5 and 4x8 grids, and torus and hypercube on a 16x16 grid.
func goldenWorlds() []goldenWorld {
	var ws []goldenWorld
	for _, name := range Generators() {
		for _, p := range []int{1, 2, 5, 8, 16} {
			if name != "hypercube" || p&(p-1) == 0 {
				ws = append(ws, goldenWorld{name, 0, p})
			}
		}
		if name == "torus" {
			ws = append(ws, goldenWorld{name, 3, 5}, goldenWorld{name, 4, 8})
		}
	}
	return append(ws, goldenWorld{"torus", 16, 16}, goldenWorld{"hypercube", 16, 16})
}

// world returns w's rank count and topology (nil for a flat world).
func (w goldenWorld) world(tb testing.TB) (int, *topo.Mapping) {
	if w.nodes == 0 {
		return w.ppn, nil
	}
	m := gridMapping(tb, w.nodes, w.ppn)
	return m.Size(), m
}

// worldDigests returns the Digest of every rank of w's world, compiled
// alone with GenerateRank.
func worldDigests(t testing.TB, w goldenWorld) (int, *topo.Mapping, [][sha256.Size]byte) {
	t.Helper()
	p, m := w.world(t)
	ds := make([][sha256.Size]byte, p)
	for r := range ds {
		rp, err := GenerateRank(w.name, p, r, m)
		if err != nil {
			t.Fatalf("%v rank %d: %v", w, r, err)
		}
		ds[r] = rp.Digest()
	}
	return p, m, ds
}

// sumDigests is the SHA-256 over a world's per-rank digests, in rank
// order: one line of digests.golden.
func sumDigests(ds [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDigestsGolden pins every program byte of the goldenWorlds: each
// line of testdata/digests.golden is the SHA-256 over one world's
// per-rank Digests, and Prove must return the same digests. Every PROOF
// record a registry holds names programs by these digests, so the file
// has no -update path: a generator change that moves a line orphans
// every record of that world already on disk.
func TestDigestsGolden(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("testdata", "digests.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, w := range goldenWorlds() {
		p, m, ds := worldDigests(t, w)
		proved, err := Prove(w.name, p, m)
		if err != nil {
			t.Fatalf("%v: Prove: %v", w, err)
		}
		if sumDigests(proved) != sumDigests(ds) {
			t.Errorf("%v: Prove's digests differ from GenerateRank's", w)
		}
		fmt.Fprintf(&got, "%v %s\n", w, sumDigests(ds))
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d golden lines, want %d", len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Errorf("digests.golden line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
}
