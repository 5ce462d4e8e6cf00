package sched

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
)

// reductionGenerators pairs each reduction generator with the shapes it
// must handle (hypercubes need power-of-two worlds).
func reductionShapes(name string) []int {
	if strings.HasSuffix(name, "hypercube") {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 3, 5, 8, 12, 15}
}

func reductionGenerators() []string {
	var out []string
	for _, rs := range GeneratorsFor(CollReduceScatter) {
		out = append(out, rs)
	}
	for _, ar := range GeneratorsFor(CollAllreduce) {
		out = append(out, ar)
	}
	return out
}

// TestReductionGeneratorsVerify proves every reduction generator's
// output at many shapes through Verify on the assembled schedule, Prove
// through VerifyWorldSliced, and the GenerateRank ≡ Slice(Generate)
// round trip.
func TestReductionGeneratorsVerify(t *testing.T) {
	t.Parallel()
	for _, name := range reductionGenerators() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, p := range reductionShapes(name) {
				s, err := Generate(name, p, nil)
				if err != nil {
					t.Fatalf("p=%d: Generate: %v", p, err)
				}
				if got := s.Collective(); !got.reduction() {
					t.Fatalf("p=%d: collective %q is not a reduction", p, got)
				}
				if s.Op != OpAny {
					t.Fatalf("p=%d: operator label %q, want %q", p, s.Op, OpAny)
				}
				if err := Verify(s); err != nil {
					t.Fatalf("p=%d: Verify: %v", p, err)
				}
				if err := VerifyWorldSliced(name, p, nil); err != nil {
					t.Fatalf("p=%d: VerifyWorldSliced: %v", p, err)
				}
				checkSliceIdentity(t, name, p, nil)
			}
		})
	}
	// Topology-shaped reduction worlds: the torus generators take their
	// grid from the mapping.
	m := gridMapping(t, 3, 5)
	for _, name := range []string{"rs-torus", "ar-torus"} {
		s, err := Generate(name, m.Size(), m)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s.Name, "torus3x5") {
			t.Errorf("%s on 3x5 grid named %q", name, s.Name)
		}
		if err := Verify(s); err != nil {
			t.Errorf("%s on 3x5 grid: %v", name, err)
		}
		if err := VerifyWorldSliced(name, m.Size(), m); err != nil {
			t.Errorf("%s on 3x5 grid (sliced): %v", name, err)
		}
		checkSliceIdentity(t, name, m.Size(), m)
	}
}

// Test operators: element-wise little-endian int64 sum and max (the
// collx.Op contract, defined locally to keep the package dependency-free).
func sumI64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := int64(binary.LittleEndian.Uint64(acc[i:]))
		b := int64(binary.LittleEndian.Uint64(in[i:]))
		binary.LittleEndian.PutUint64(acc[i:], uint64(a+b))
	}
}

func maxI64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := int64(binary.LittleEndian.Uint64(acc[i:]))
		b := int64(binary.LittleEndian.Uint64(in[i:]))
		if b > a {
			binary.LittleEndian.PutUint64(acc[i:], uint64(b))
		}
	}
}

// redVal is the deterministic test payload: element e of the block rank
// s contributes toward destination d.
func redVal(s, d, e int) int64 { return int64(s*31 + d*7 + e) }

// reduceExecBody fills int64 payloads, runs the schedule twice through
// one executor (persistence) and checks the reduced result element-wise.
// For reduce-scatter the recv space is one block; for allreduce it is the
// full p-block result.
func reduceExecBody(s *Schedule, elems int, op ReduceOp, fold func(a, b int64) int64) func(c comm.Comm) error {
	return func(c comm.Comm) error {
		block := elems * 8
		p, rank := c.Size(), c.Rank()
		ex, err := rankExec(s, rank)
		if err != nil {
			return err
		}
		ex.SetOp(op)
		send := comm.Alloc(p * block)
		recvBlocks := 1
		if s.Collective() == CollAllreduce {
			recvBlocks = p
		}
		recv := comm.Alloc(recvBlocks * block)
		for d := 0; d < p; d++ {
			for e := 0; e < elems; e++ {
				binary.LittleEndian.PutUint64(send.Bytes()[d*block+e*8:], uint64(redVal(rank, d, e)))
			}
		}
		for iter := 0; iter < 2; iter++ {
			for i := range recv.Bytes() {
				recv.Bytes()[i] = 0xEE
			}
			if err := ex.Run(c, send, recv, block, nil); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			for b := 0; b < recvBlocks; b++ {
				d := rank
				if s.Collective() == CollAllreduce {
					d = b
				}
				for e := 0; e < elems; e++ {
					want := redVal(0, d, e)
					for src := 1; src < p; src++ {
						want = fold(want, redVal(src, d, e))
					}
					got := int64(binary.LittleEndian.Uint64(recv.Bytes()[b*block+e*8:]))
					if got != want {
						return fmt.Errorf("iter %d block %d elem %d: got %d, want %d", iter, b, e, got, want)
					}
				}
			}
		}
		return nil
	}
}

// TestReductionExecLive runs every reduction schedule on the live runtime
// with both test operators and checks the combined payloads element-wise.
func TestReductionExecLive(t *testing.T) {
	t.Parallel()
	ops := []struct {
		name string
		op   ReduceOp
		fold func(a, b int64) int64
	}{
		{"sum", sumI64, func(a, b int64) int64 { return a + b }},
		{"max", maxI64, func(a, b int64) int64 {
			if b > a {
				return b
			}
			return a
		}},
	}
	for _, name := range reductionGenerators() {
		shapes := []int{1, 2, 5, 12}
		if strings.HasSuffix(name, "hypercube") {
			shapes = []int{1, 2, 8, 16}
		}
		for _, p := range shapes {
			for _, o := range ops {
				name, p, o := name, p, o
				t.Run(fmt.Sprintf("%s/p%d/%s", name, p, o.name), func(t *testing.T) {
					t.Parallel()
					s, err := Generate(name, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := Verify(s); err != nil {
						t.Fatal(err)
					}
					if err := runtime.Run(runtime.Config{Ranks: p}, reduceExecBody(s, 3, o.op, o.fold)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestReductionExecSim runs every reduction schedule under the
// discrete-event simulator with real payloads: the virtual-time transport
// must deliver byte-identical reductions.
func TestReductionExecSim(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	for _, name := range reductionGenerators() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := Generate(name, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.RunCluster(sim.ClusterConfig{Model: model, Nodes: 2, PPN: 8, Seed: 1},
				reduceExecBody(s, 4, sumI64, func(a, b int64) int64 { return a + b })); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExecReduceNeedsOp: running a reduction schedule without an
// installed operator fails, and the error names the remedy.
func TestExecReduceNeedsOp(t *testing.T) {
	t.Parallel()
	s, err := Generate("rs-ring", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		block := 8
		ex, err := rankExec(s, c.Rank())
		if err != nil {
			return err
		}
		return ex.Run(c, comm.Alloc(2*block), comm.Alloc(block), block, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "SetOp") {
		t.Fatalf("missing-operator run: %v", err)
	}
}

// findReduce locates a Reduce step in the schedule with a scratch-space
// accumulator, returning (round, rank, step index).
func findReduce(t *testing.T, s *Schedule, scratchDst bool) (int, int, int) {
	t.Helper()
	for ri, rd := range s.Rounds {
		for r, steps := range rd.Steps {
			for si, st := range steps {
				if st.Kind == Reduce && (st.Dst.Buf >= SpaceScratch) == scratchDst {
					return ri, r, si
				}
			}
		}
	}
	t.Fatal("schedule has no matching reduce step")
	return 0, 0, 0
}

// TestVerifyRejectsReductionCorruption: Verify's world driver catches
// every reduction-specific corruption class.
func TestVerifyRejectsReductionCorruption(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		gen     string
		corrupt func(t *testing.T, s *Schedule)
		wantErr string
	}{
		{
			name: "double contribution",
			gen:  "rs-ring",
			corrupt: func(t *testing.T, s *Schedule) {
				ri, r, si := findReduce(t, s, true)
				steps := s.Rounds[ri].Steps[r]
				s.Rounds[ri].Steps[r] = append(steps[:si+1:si+1], steps[si:]...)
			},
			wantErr: "double contribution",
		},
		{
			name: "wrong operator label",
			gen:  "rs-ring",
			corrupt: func(t *testing.T, s *Schedule) {
				ri, r, si := findReduce(t, s, true)
				s.Rounds[ri].Steps[r][si].Op = "max"
			},
			wantErr: "does not match the schedule's",
		},
		{
			name: "missing contribution",
			gen:  "rs-ring",
			corrupt: func(t *testing.T, s *Schedule) {
				ri, r, si := findReduce(t, s, true)
				steps := s.Rounds[ri].Steps[r]
				s.Rounds[ri].Steps[r] = append(steps[:si:si], steps[si+1:]...)
			},
			wantErr: "contribution",
		},
		{
			name: "operator on a routing schedule",
			gen:  "ring",
			corrupt: func(t *testing.T, s *Schedule) {
				s.Op = OpAny
			},
			wantErr: "non-reduction",
		},
		{
			name: "reduction without operator label",
			gen:  "rs-ring",
			corrupt: func(t *testing.T, s *Schedule) {
				s.Op = ""
			},
			wantErr: "operator",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := Generate(tc.gen, 6, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, s)
			err = Verify(s)
			if err == nil {
				t.Fatalf("corruption %q passed verification", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestStreamVerifierRejectsReductionCorruption: the same corruption
// classes are caught when the rank slices are streamed through
// VerifyRank and the world driver.
func TestStreamVerifierRejectsReductionCorruption(t *testing.T) {
	t.Parallel()
	const p = 6
	slices := func(t *testing.T) []*RankProgram {
		t.Helper()
		s, err := Generate("rs-ring", p, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*RankProgram, p)
		for r := 0; r < p; r++ {
			rp, err := Slice(s, r)
			if err != nil {
				t.Fatal(err)
			}
			cp := *rp
			cp.Rounds = nil
			for _, steps := range rp.Rounds {
				cp.Rounds = append(cp.Rounds, append([]Step(nil), steps...))
			}
			out[r] = &cp
		}
		return out
	}
	// findSliceReduce returns the first or last Reduce step of a slice.
	// The last one folds in this rank's own send block right before the
	// accumulator is copied to the recv space, so corrupting its source
	// is locally detectable at the result write.
	findSliceReduce := func(t *testing.T, rp *RankProgram, last bool) (int, int) {
		t.Helper()
		ri, si := -1, -1
		for i, steps := range rp.Rounds {
			for j, st := range steps {
				if st.Kind == Reduce {
					if ri, si = i, j; !last {
						return ri, si
					}
				}
			}
		}
		if ri < 0 {
			t.Fatal("slice has no reduce step")
		}
		return ri, si
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, rps []*RankProgram)
		wantErr string
	}{
		{
			name: "local double contribution",
			mutate: func(t *testing.T, rps []*RankProgram) {
				ri, si := findSliceReduce(t, rps[2], false)
				steps := rps[2].Rounds[ri]
				rps[2].Rounds[ri] = append(steps[:si+1:si+1], steps[si:]...)
			},
			wantErr: "double contribution",
		},
		{
			name: "wrong operator label on a step",
			mutate: func(t *testing.T, rps []*RankProgram) {
				ri, si := findSliceReduce(t, rps[1], false)
				rps[1].Rounds[ri][si].Op = "max"
			},
			wantErr: "does not match the schedule's",
		},
		{
			name: "operator drift across slices",
			mutate: func(t *testing.T, rps []*RankProgram) {
				rps[3].Op = "max"
				for ri := range rps[3].Rounds {
					for si := range rps[3].Rounds[ri] {
						if rps[3].Rounds[ri][si].Kind == Reduce {
							rps[3].Rounds[ri][si].Op = "max"
						}
					}
				}
			},
			wantErr: "the world's is",
		},
		{
			name: "wrong result block",
			mutate: func(t *testing.T, rps []*RankProgram) {
				// Redirect the final self contribution: rank 4 reduces the
				// wrong send block into its result slot, so the locally
				// known block id disagrees with the slot's expected result.
				ri, si := findSliceReduce(t, rps[4], true)
				rps[4].Rounds[ri][si].Src.Off = (rps[4].Rounds[ri][si].Src.Off + 1) % p
			},
			wantErr: "the result of block",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rps := slices(t)
			tc.mutate(t, rps)
			err := streamAll(rps)
			if err == nil {
				t.Fatalf("corruption %q passed verification", tc.name)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReductionScheduleRoundTrip: the reduction IR fields survive the
// JSON round trip at format version 2, for whole-world schedules and
// rank slices.
func TestReductionScheduleRoundTrip(t *testing.T) {
	t.Parallel()
	s, err := Generate("ar-torus", 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"format": 2`)) {
		t.Fatalf("reduction schedule not encoded at format 2")
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch")
	}
	if got.Collective() != CollAllreduce || got.Op != OpAny {
		t.Fatalf("decoded coll/op = %q/%q", got.Collective(), got.Op)
	}
	if err := Verify(got); err != nil {
		t.Fatalf("decoded schedule fails verification: %v", err)
	}
	rp, err := Slice(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	grp, err := DecodeRank(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp, grp) {
		t.Fatalf("rank program round trip mismatch")
	}
	if grp.Collective() != CollAllreduce || grp.Op != OpAny {
		t.Fatalf("decoded rank coll/op = %q/%q", grp.Collective(), grp.Op)
	}
	if err := VerifyRank(grp); err != nil {
		t.Fatalf("decoded rank program fails verification: %v", err)
	}
}
