package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

// gridMapping builds a nodes x ppn topology with a flat node shape.
func gridMapping(t testing.TB, nodes, ppn int) *topo.Mapping {
	t.Helper()
	m, err := topo.NewMapping(topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: ppn}, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRankGeneratorsCoverRegistry pins every registry entry to a rank
// compiler and a valid collective.
func TestRankGeneratorsCoverRegistry(t *testing.T) {
	t.Parallel()
	for name, e := range genRegistry {
		if e.rank == nil {
			t.Errorf("generator %q has no rank-sliced implementation", name)
		}
		if !e.coll.valid() {
			t.Errorf("generator %q declares invalid collective %q", name, e.coll)
		}
	}
}

// checkSliceIdentity asserts GenerateRank output is byte-identical to the
// corresponding slice of Generate for every rank of the world.
func checkSliceIdentity(t *testing.T, name string, p int, m *topo.Mapping) {
	t.Helper()
	s, err := Generate(name, p, m)
	if err != nil {
		t.Fatalf("%s p=%d: Generate: %v", name, p, err)
	}
	for r := 0; r < p; r++ {
		want, err := Slice(s, r)
		if err != nil {
			t.Fatalf("%s p=%d rank %d: Slice: %v", name, p, r, err)
		}
		got, err := GenerateRank(name, p, r, m)
		if err != nil {
			t.Fatalf("%s p=%d rank %d: GenerateRank: %v", name, p, r, err)
		}
		if !reflect.DeepEqual(got, want) {
			for ri := range want.Rounds {
				if ri >= len(got.Rounds) || !reflect.DeepEqual(got.Rounds[ri], want.Rounds[ri]) {
					t.Fatalf("%s p=%d rank %d: round %d differs\n got: %v\nwant: %v\n(got scratch %v, want %v; got rounds %d, want %d)",
						name, p, r, ri, at(got.Rounds, ri), want.Rounds[ri], got.Scratch, want.Scratch, len(got.Rounds), len(want.Rounds))
				}
			}
			t.Fatalf("%s p=%d rank %d: programs differ outside rounds: got {name %q ranks %d rank %d scratch %v rounds %d}, want {name %q ranks %d rank %d scratch %v rounds %d}",
				name, p, r, got.Name, got.Ranks, got.Rank, got.Scratch, len(got.Rounds),
				want.Name, want.Ranks, want.Rank, want.Scratch, len(want.Rounds))
		}
	}
}

func at(rounds [][]Step, ri int) []Step {
	if ri < len(rounds) {
		return rounds[ri]
	}
	return nil
}

// TestGenerateRankMatchesGenerate is the round-trip property test of
// assembly: for every generator and a randomized set of (p, rank,
// topology) shapes, GenerateRank output is byte-identical to the
// corresponding Slice of Generate, which assembles every rank's program
// with withRounds.
func TestGenerateRankMatchesGenerate(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for _, name := range Generators() {
		// Draw here, not in the parallel subtest: rng is not safe for
		// concurrent use, and drawing in generator order keeps each
		// generator's shapes fixed from run to run.
		shapes := shapesFor(name, rng, 12)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, p := range shapes {
				checkSliceIdentity(t, name, p, nil)
			}
		})
	}
	// Topology-shaped worlds: the torus takes its grid from the mapping,
	// the others must ignore it — identity must hold either way.
	t.Run("with-topology", func(t *testing.T) {
		t.Parallel()
		for _, shape := range []struct{ nodes, ppn int }{{2, 4}, {3, 5}, {4, 4}, {1, 7}, {6, 2}} {
			m := gridMapping(t, shape.nodes, shape.ppn)
			for _, name := range Generators() {
				p := m.Size()
				if name == "hypercube" && p&(p-1) != 0 {
					continue
				}
				checkSliceIdentity(t, name, p, m)
			}
		}
	})
}

// TestProveAcceptsGenerators: the world proof over streamed
// rounds, through VerifyWorldSliced, accepts every generator at
// randomized shapes.
func TestProveAcceptsGenerators(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for _, name := range Generators() {
		for _, p := range shapesFor(name, rng, 8) {
			if err := VerifyWorldSliced(name, p, nil); err != nil {
				t.Errorf("%s p=%d: sliced verification failed: %v", name, p, err)
			}
		}
	}
	m := gridMapping(t, 3, 4)
	if err := VerifyWorldSliced("torus", m.Size(), m); err != nil {
		t.Errorf("torus on 3x4 grid: %v", err)
	}
}

// corrupt returns all rank slices of a generated schedule, for mutation.
func slicesOf(t *testing.T, name string, p int) []*RankProgram {
	t.Helper()
	s, err := Generate(name, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*RankProgram, p)
	for r := 0; r < p; r++ {
		rp, err := Slice(s, r)
		if err != nil {
			t.Fatal(err)
		}
		// Deep-copy rounds so mutations cannot alias the generator output.
		cp := &RankProgram{Format: rp.Format, Name: rp.Name, Ranks: rp.Ranks, Rank: rp.Rank,
			Scratch: append([]int(nil), rp.Scratch...)}
		for _, steps := range rp.Rounds {
			cp.Rounds = append(cp.Rounds, append([]Step(nil), steps...))
		}
		out[r] = cp
	}
	return out
}

// programSource is the source of a materialised program: its rounds,
// copied into the caller's buffer.
func programSource(rp *RankProgram) *source {
	hdr := *rp
	hdr.Rounds = nil
	return &source{hdr: hdr, phases: []phase{{len(rp.Rounds), func(ri int, buf []Step) []Step {
		return append(buf, rp.Rounds[ri]...)
	}}}}
}

// streamAll checks a world given as its programs, indexed by rank:
// every program alone with VerifyRank, then the world, its rounds
// streamed from the programs, with the world driver.
func streamAll(rps []*RankProgram) error {
	srcs := make([]*source, len(rps))
	for r, rp := range rps {
		if err := VerifyRank(rp); err != nil {
			return err
		}
		srcs[r] = programSource(rp)
	}
	return walkWorld(srcs, nil)
}

// TestWorldDriverRejections: every corruption class of a world's
// programs, streamed through VerifyRank and the world driver, is
// caught.
func TestWorldDriverRejections(t *testing.T) {
	t.Parallel()
	const p = 6
	cases := []struct {
		name   string
		gen    string
		mutate func(rps []*RankProgram)
	}{
		{"dropped-send", "pairwise", func(rps []*RankProgram) {
			// Remove rank 0's round-1 sendrecv entirely: its partner's
			// receive goes unmatched.
			rps[0].Rounds[1] = nil
		}},
		{"redirected-send", "pairwise", func(rps []*RankProgram) {
			// Point rank 0's round-1 send at the wrong peer: the (from,
			// to) multisets no longer match.
			rps[0].Rounds[1][0].To = (rps[0].Rounds[1][0].To + 1) % p
		}},
		{"length-mismatch", "bruck", func(rps []*RankProgram) {
			// Shrink one packed exchange: block totals disagree.
			st := &rps[2].Rounds[1][len(rps[2].Rounds[1])-1]
			st.Src.N--
			st.Dst.N--
		}},
		{"double-delivery", "direct", func(rps []*RankProgram) {
			// Deliver rank 1's self block twice.
			rps[1].Rounds[0] = append(rps[1].Rounds[0], selfCopy(1))
		}},
		{"wrong-self-block", "direct", func(rps []*RankProgram) {
			// Copy the wrong send slot into the self recv slot: content is
			// locally known, so the slice check catches it.
			rps[1].Rounds[0][0].Src.Off = 2
		}},
		{"undefined-read", "bruck", func(rps []*RankProgram) {
			// Read a rotation-buffer slot before anything wrote it.
			rps[0].Rounds[0] = append([]Step{{Kind: Copy, Src: scratchRef(0, 0, 1), Dst: scratchRef(1, 0, 1)}}, rps[0].Rounds[0]...)
		}},
		{"same-round-recv-read", "direct", func(rps []*RankProgram) {
			// Copy out of a slot a same-round receive writes.
			from := rps[0].Rounds[0][1].From
			rps[0].Rounds[0] = append(rps[0].Rounds[0], Step{Kind: Copy, Src: recvRef(int(from), 1), Dst: scratchRef(0, 0, 1)})
			rps[0].Scratch = []int{1}
			for r := 1; r < p; r++ {
				rps[r].Scratch = []int{1}
			}
		}},
		{"send-buffer-write", "pairwise", func(rps []*RankProgram) {
			rps[3].Rounds[0][0].Dst = sendRef(0, 1)
		}},
		{"rank-missing", "pairwise", func(rps []*RankProgram) {
			rps[4] = rps[2] // rank 4's slice replaced: 2 streams twice
		}},
		{"scratch-shape-drift", "bruck", func(rps []*RankProgram) {
			rps[5].Scratch[0]++
		}},
		{"ref-out-of-range", "pairwise", func(rps []*RankProgram) {
			rps[0].Rounds[2][0].Src.Off = p
		}},
		{"reduce-step", "pairwise", func(rps []*RankProgram) {
			rps[0].Rounds[0] = append(rps[0].Rounds[0], Step{Kind: Reduce, Src: sendRef(0, 1), Dst: scratchRef(0, 0, 1)})
			rps[0].Scratch = []int{1}
			for r := 1; r < p; r++ {
				rps[r].Scratch = []int{1}
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rps := slicesOf(t, tc.gen, p)
			if err := streamAll(rps); err != nil {
				t.Fatalf("uncorrupted %s stream rejected: %v", tc.gen, err)
			}
			rps = slicesOf(t, tc.gen, p)
			tc.mutate(rps)
			if err := streamAll(rps); err == nil {
				t.Fatalf("corrupted %s stream (%s) accepted", tc.gen, tc.name)
			}
		})
	}
}

// TestVerifyRankLocal: the single-slice entry point accepts generator
// output and rejects local corruption.
func TestVerifyRankLocal(t *testing.T) {
	t.Parallel()
	rp, err := GenerateRank("ring", 9, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRank(rp); err != nil {
		t.Fatalf("generated slice rejected: %v", err)
	}
	rp.Rounds[0][0].Src.Off = 99
	if err := VerifyRank(rp); err == nil {
		t.Fatal("out-of-range ref accepted")
	}
	if err := VerifyRank(nil); err == nil {
		t.Fatal("nil rank program accepted")
	}
}

// TestGenerateRankArgErrors mirrors Generate's argument validation.
func TestGenerateRankArgErrors(t *testing.T) {
	t.Parallel()
	if _, err := GenerateRank("no-such", 4, 0, nil); err == nil {
		t.Error("unknown generator accepted")
	}
	if _, err := GenerateRank("pairwise", 0, 0, nil); err == nil {
		t.Error("zero rank count accepted")
	}
	if _, err := GenerateRank("pairwise", MaxRanks+1, 0, nil); err == nil {
		t.Error("world past the int32 block-id width accepted")
	}
	if _, err := Generate("pairwise", MaxRanks+1, nil); err == nil {
		t.Error("Generate accepted a world past the int32 block-id width")
	}
	if _, err := GenerateRank("pairwise", 4, 4, nil); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := GenerateRank("hypercube", 6, 0, nil); err == nil {
		t.Error("non-power-of-two hypercube accepted")
	}
	if _, err := Slice(nil, 0); err == nil {
		t.Error("nil schedule sliced")
	}
	s, err := Generate("pairwise", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Slice(s, 7); err == nil {
		t.Error("out-of-range slice accepted")
	}
}

// TestImpossibleWorldsRejected: a world past MaxRanks is refused by both
// decoders and both verifiers before anything is sized by its rank
// count. At 4e9 ranks VerifyRank would otherwise exhaust memory.
func TestImpossibleWorldsRejected(t *testing.T) {
	t.Parallel()
	const want = "exceeds the schedule id width"
	for _, p := range []int{MaxRanks + 1, 4_000_000_000} {
		rp, err := GenerateRank("direct", 2, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rp.Ranks = p
		var buf bytes.Buffer
		if err := rp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRank(&buf); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("DecodeRank of a %d-rank program: %v, want %q", p, err, want)
		}
		if err := VerifyRank(rp); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("VerifyRank of a %d-rank program: %v, want %q", p, err, want)
		}

		s := mustGen(t, "direct", 2)
		s.Ranks = p
		buf.Reset()
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode of a %d-rank schedule: %v, want %q", p, err, want)
		}
		if err := Verify(s); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Verify of a %d-rank schedule: %v, want %q", p, err, want)
		}
	}
}

// TestVerifyRankAllocs: a passing check allocates per slice, not per
// step — under one allocation per eight steps on rank 5 of each family
// at 1024 ranks. Not parallel: AllocsPerRun counts every goroutine's
// allocations.
func TestVerifyRankAllocs(t *testing.T) {
	const p, r = 1024, 5
	for _, name := range []string{"pairwise", "direct", "bruck", "torus", "hypercube"} {
		rp, err := GenerateRank(name, p, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for _, st := range rp.Rounds {
			steps += len(st)
		}
		var verr error
		allocs := testing.AllocsPerRun(2, func() { verr = VerifyRank(rp) })
		if verr != nil {
			t.Fatalf("%s rank %d: %v", name, r, verr)
		}
		t.Logf("%s rank %d of %d: %.0f allocations for %d steps", name, r, p, allocs, steps)
		if allocs*8 >= float64(steps) {
			t.Errorf("%s rank %d of %d: VerifyRank made %.0f allocations for %d steps, want fewer than %d",
				name, r, p, allocs, steps, steps/8)
		}
	}
}

// TestRankProgramJSONRoundTrip: the sliced artifact encodes and decodes
// losslessly and rejects foreign format versions.
func TestRankProgramJSONRoundTrip(t *testing.T) {
	t.Parallel()
	rp, err := GenerateRank("torus", 12, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRank(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rp) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, rp)
	}
	bad := bytes.Replace(buf.Bytes(), []byte(fmt.Sprintf(`"format": %d`, FormatVersion)), []byte(`"format": 99`), 1)
	if _, err := DecodeRank(bytes.NewReader(bad)); err == nil {
		t.Fatal("foreign format version accepted")
	}
}

// TestRankProgramStats: slice stats are consistent with the whole-world
// schedule: per-rank messages and copies sum to the schedule totals.
func TestRankProgramStats(t *testing.T) {
	t.Parallel()
	s, err := Generate("ring", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole := s.Stats()
	var msgs, copies, wire int
	for r := 0; r < 10; r++ {
		rp, err := Slice(s, r)
		if err != nil {
			t.Fatal(err)
		}
		st := rp.Stats()
		msgs += st.Messages
		copies += st.Copies
		wire += st.WireBlocks
		if st.Rounds != whole.Rounds {
			t.Errorf("rank %d sees %d rounds, schedule has %d", r, st.Rounds, whole.Rounds)
		}
		if st.ScratchBlocks != whole.ScratchBlocks {
			t.Errorf("rank %d scratch %d, schedule %d", r, st.ScratchBlocks, whole.ScratchBlocks)
		}
	}
	if msgs != whole.Messages || copies != whole.Copies || wire != whole.WireBlocks {
		t.Errorf("slice sums (msgs %d, copies %d, wire %d) != schedule stats (%d, %d, %d)",
			msgs, copies, wire, whole.Messages, whole.Copies, whole.WireBlocks)
	}
}

// TestGenerateRankAt4096: every generator compiles and locally verifies
// single-rank slices of a 4096-rank world in O(slice) — worlds whose
// assembled schedules (hundreds of MB to tens of GB) were previously
// unconstructible. Ring's slice alone is 8.4M steps, so it is compiled
// but not symbolically walked here.
func TestGenerateRankAt4096(t *testing.T) {
	t.Parallel()
	const p = 4096
	for _, name := range []string{"direct", "pairwise", "bruck", "hypercube", "torus"} {
		for _, r := range []int{0, 1, p / 2, p - 1} {
			rp, err := GenerateRank(name, p, r, nil)
			if err != nil {
				t.Fatalf("%s rank %d: %v", name, r, err)
			}
			if err := VerifyRank(rp); err != nil {
				t.Fatalf("%s rank %d: %v", name, r, err)
			}
			if rp.Ranks != p || rp.Rank != r {
				t.Fatalf("%s rank %d: program says rank %d of %d", name, r, rp.Rank, rp.Ranks)
			}
		}
	}
	rp, err := GenerateRank("ring", p, p/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The shortest-path ring moves sum(dist) = p^2/4 blocks through every
	// rank: the slice must carry exactly that much traffic.
	if st := rp.Stats(); st.WireBlocks != p*p/4 {
		t.Errorf("ring rank %d wire blocks = %d, want %d", p/2, st.WireBlocks, p*p/4)
	}
}

// TestProveLargeWorld proves a full 4096-rank world with the
// world driver, its rounds streamed from the generator one round of the
// world at a time: the proof holds the touched slots, never the
// programs. About 10 s alone on 2 vCPUs, so -short skips it.
func TestProveLargeWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank world proof (~10 s alone on 2 vCPUs) skipped in -short mode")
	}
	t.Parallel()
	if err := VerifyWorldSliced("pairwise", 4096, nil); err != nil {
		t.Fatalf("pairwise at 4096 ranks: %v", err)
	}
	if err := VerifyWorldSliced("hypercube", 1024, nil); err != nil {
		t.Fatalf("hypercube at 1024 ranks: %v", err)
	}
}

// TestRankExecCorrectness runs executors built from GenerateRank programs
// (never touching an assembled schedule) on the live runtime and checks
// every byte lands per MPI_Alltoall.
func TestRankExecCorrectness(t *testing.T) {
	t.Parallel()
	for _, name := range Generators() {
		shapes := []int{2, 5, 9}
		if name == "hypercube" {
			shapes = []int{2, 8}
		}
		for _, p := range shapes {
			name, p := name, p
			t.Run(fmt.Sprintf("%s/p%d", name, p), func(t *testing.T) {
				t.Parallel()
				const block = 3
				err := runtime.Run(runtime.Config{Ranks: p}, func(c comm.Comm) error {
					rp, err := GenerateRank(name, p, c.Rank(), nil)
					if err != nil {
						return err
					}
					if err := VerifyRank(rp); err != nil {
						return err
					}
					ex := NewRankExec(rp)
					send := comm.Alloc(p * block)
					recv := comm.Alloc(p * block)
					testutil.FillAlltoall(send, c.Rank(), p, block)
					for iter := 0; iter < 2; iter++ {
						if err := ex.Run(c, send, recv, block, nil); err != nil {
							return fmt.Errorf("iter %d: %w", iter, err)
						}
						if err := testutil.CheckAlltoall(recv, c.Rank(), p, block); err != nil {
							return fmt.Errorf("iter %d: %w", iter, err)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRankExecRankMismatch: an executor built for one rank refuses to run
// as another (or on the wrong world size), erroring before any
// communication.
func TestRankExecRankMismatch(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		// Every rank is handed the *other* rank's program: both must
		// refuse locally, so no one blocks in a half-posted exchange.
		rp, err := GenerateRank("pairwise", 2, 1-c.Rank(), nil)
		if err != nil {
			return err
		}
		ex := NewRankExec(rp)
		if e := ex.Run(c, comm.Alloc(8), comm.Alloc(8), 4, nil); e == nil {
			return fmt.Errorf("rank %d ran rank %d's program", c.Rank(), 1-c.Rank())
		}
		// World-size mismatch is also refused up front.
		big, err := GenerateRank("pairwise", 4, c.Rank(), nil)
		if err != nil {
			return err
		}
		if e := NewRankExec(big).Run(c, comm.Alloc(16), comm.Alloc(16), 4, nil); e == nil {
			return fmt.Errorf("4-rank program ran on a 2-rank communicator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
