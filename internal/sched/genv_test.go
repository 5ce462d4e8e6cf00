package sched

import (
	"fmt"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
)

// vTestCounts builds a deterministic non-uniform count matrix with zero
// pairs, a silent rank (row of zeroes) and a deaf rank (column of
// zeroes) once p is large enough to spare them.
func vTestCounts(p int) [][]int {
	counts := make([][]int, p)
	for s := range counts {
		counts[s] = make([]int, p)
		for d := range counts[s] {
			counts[s][d] = (s*5 + d*3 + (s+d)%4) % 7
		}
	}
	if p >= 4 {
		for d := 0; d < p; d++ {
			counts[p-1][d] = 0 // rank p-1 sends nothing
		}
		for s := 0; s < p; s++ {
			counts[s][p-2] = 0 // rank p-2 receives nothing
		}
	}
	return counts
}

// TestGenerateVVerify proves both alltoallv generators at several shapes
// through the world driver and checks every slice with VerifyRank, with
// non-uniform counts including zero pairs, rows and columns.
func TestGenerateVVerify(t *testing.T) {
	t.Parallel()
	for _, name := range VGenerators() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, p := range []int{1, 2, 3, 4, 6, 9} {
				counts := vTestCounts(p)
				s, err := GenerateV(name, counts)
				if err != nil {
					t.Fatalf("p=%d: GenerateV: %v", p, err)
				}
				if s.Collective() != CollAlltoallv {
					t.Fatalf("p=%d: collective %q", p, s.Collective())
				}
				if err := Verify(s); err != nil {
					t.Fatalf("p=%d: Verify: %v", p, err)
				}
				for r := 0; r < p; r++ {
					rp, err := Slice(s, r)
					if err != nil {
						t.Fatalf("p=%d: Slice(%d): %v", p, r, err)
					}
					if err := VerifyRank(rp); err != nil {
						t.Fatalf("p=%d: VerifyRank(%d): %v", p, r, err)
					}
				}
			}
		})
	}
}

// TestGenerateVRejectsBadCounts: malformed count matrices are rejected at
// compile time.
func TestGenerateVRejectsBadCounts(t *testing.T) {
	t.Parallel()
	if _, err := GenerateV("direct", [][]int{{1, 2}, {3}}); err == nil ||
		!strings.Contains(err.Error(), "row 1") {
		t.Errorf("non-square matrix: %v", err)
	}
	if _, err := GenerateV("direct", [][]int{{1, 2}, {-1, 0}}); err == nil ||
		!strings.Contains(err.Error(), "negative count") {
		t.Errorf("negative count: %v", err)
	}
	if _, err := GenerateV("no-such", [][]int{{1}}); err == nil ||
		!strings.Contains(err.Error(), "unknown alltoallv generator") {
		t.Errorf("unknown generator: %v", err)
	}
}

// TestStreamVerifierRejectsVCorruption: cross-slice alltoallv corruption
// classes caught when the slices are streamed through VerifyRank and the
// world driver.
func TestStreamVerifierRejectsVCorruption(t *testing.T) {
	t.Parallel()
	const p = 4
	slices := func(t *testing.T) []*RankProgram {
		t.Helper()
		s, err := GenerateV("pairwise", vTestCounts(p))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*RankProgram, p)
		for r := 0; r < p; r++ {
			rp, err := Slice(s, r)
			if err != nil {
				t.Fatal(err)
			}
			out[r] = rp
		}
		return out
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, rps []*RankProgram)
		wantErr string
	}{
		{
			name: "count declarations drift across slices",
			mutate: func(t *testing.T, rps []*RankProgram) {
				// Rank 0 declares one more block for pair 0->1 than rank 1
				// expects. The steps still agree (so every per-round check
				// passes); only the comparison of the declarations can
				// catch it.
				rps[0].VSend[1]++
			},
			wantErr: "count declarations disagree",
		},
		{
			name: "negative count declaration",
			mutate: func(t *testing.T, rps []*RankProgram) {
				rps[2].VSend[0] = -1
			},
			wantErr: "negative count",
		},
		{
			name: "self counts disagree",
			mutate: func(t *testing.T, rps []*RankProgram) {
				rps[1].VSend[1]++
			},
			wantErr: "self count",
		},
		{
			name: "counts on a non-alltoallv program",
			mutate: func(t *testing.T, rps []*RankProgram) {
				rps[0].Coll = CollAlltoall
				rps[0].VSend = nil // keep VRecv: the leftover is the defect
			},
			wantErr: "per-pair counts on a non-alltoallv",
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
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// vFill/vCheck mark every block of the canonical packed layout with a
// (source, destination, index) byte so misrouted or misplaced blocks are
// detected. Block size is 1 byte — the granularity core's sched-backed
// alltoallv drives the executor at.
func vMark(s, d, k int) byte { return byte(s*89+d*17+k) ^ 0xA5 }

// TestGenerateVExecLive executes both alltoallv schedules on the live
// runtime at block=1 with packed payloads and checks every delivered
// byte, twice through one executor.
func TestGenerateVExecLive(t *testing.T) {
	t.Parallel()
	const p = 6
	counts := vTestCounts(p)
	for _, name := range VGenerators() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := GenerateV(name, counts)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(s); err != nil {
				t.Fatal(err)
			}
			if err := runtime.Run(runtime.Config{Ranks: p}, vExecBody(s, counts)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// vExecBody runs an alltoallv schedule at block=1 with vMark payloads
// packed in the canonical layout and checks every delivered byte,
// twice through one executor.
func vExecBody(s *Schedule, counts [][]int) func(c comm.Comm) error {
	return func(c comm.Comm) error {
		p := len(counts)
		r := c.Rank()
		ex, err := rankExec(s, r)
		if err != nil {
			return err
		}
		send := comm.Alloc(maxInt(1, sumCounts(counts[r])))
		col := 0
		for src := 0; src < p; src++ {
			col += counts[src][r]
		}
		recv := comm.Alloc(maxInt(1, col))
		off := 0
		for d := 0; d < p; d++ {
			for k := 0; k < counts[r][d]; k++ {
				send.Bytes()[off] = vMark(r, d, k)
				off++
			}
		}
		for iter := 0; iter < 2; iter++ {
			for i := range recv.Bytes() {
				recv.Bytes()[i] = 0xEE
			}
			if err := ex.Run(c, send, recv, 1, nil); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			off := 0
			for src := 0; src < p; src++ {
				for k := 0; k < counts[src][r]; k++ {
					if got, want := recv.Bytes()[off], vMark(src, r, k); got != want {
						return fmt.Errorf("iter %d: block %d of %d->%d: got %#x, want %#x", iter, k, src, r, got, want)
					}
					off++
				}
			}
		}
		return nil
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
