package sched

import (
	"runtime"
	"strings"
	"testing"
)

// mustGen generates and returns a schedule or fails the test.
func mustGen(t *testing.T, name string, p int) *Schedule {
	t.Helper()
	s, err := Generate(name, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVerifyRejectsCorruption corrupts a verified schedule in every way
// the verifier claims to catch and checks each is rejected with a
// diagnostic mentioning the failure.
func TestVerifyRejectsCorruption(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		corrupt func(s *Schedule)
		wantErr string
	}{
		{
			name: "dropped step",
			corrupt: func(s *Schedule) {
				// Remove rank 2's exchange in round 3: its partners' send
				// and receive both lose their match.
				s.Rounds[3].Steps[2] = nil
			},
			wantErr: "unmatched",
		},
		{
			name: "unpaired send",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0] = append(s.Rounds[1].Steps[0],
					Step{Kind: Send, To: 3, Src: sendRef(3, 1)})
			},
			wantErr: "unmatched send",
		},
		{
			name: "unpaired recv",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0] = append(s.Rounds[1].Steps[0],
					Step{Kind: Recv, From: 3, Dst: recvRef(3, 1)})
			},
			wantErr: "unmatched receive",
		},
		{
			name: "duplicated block delivery",
			corrupt: func(s *Schedule) {
				// An extra matched exchange in round 2 delivering block
				// (0->3) early: correct content, but round 3's regular
				// pairwise delivery then lands it a second time.
				rd := &s.Rounds[2]
				rd.Steps[0] = append(rd.Steps[0], Step{Kind: Send, To: 3, Src: sendRef(3, 1)})
				rd.Steps[3] = append(rd.Steps[3], Step{Kind: Recv, From: 0, Dst: recvRef(0, 1)})
			},
			wantErr: "more than once",
		},
		{
			name: "misrouted block",
			corrupt: func(s *Schedule) {
				// Point round 1's receive at the wrong recv slot: the slot
				// gets a block from the wrong source.
				st := &s.Rounds[1].Steps[0]
				for i := range *st {
					if (*st)[i].Kind == SendRecv {
						(*st)[i].Dst.Off = ((*st)[i].Dst.Off + 1) % int32(s.Ranks)
					}
				}
			},
			wantErr: "",
		},
		{
			name: "offset out of range",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].Src.Off = int32(s.Ranks)
			},
			wantErr: "out of space",
		},
		{
			name: "length mismatch across the wire",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].Src.N = 2
			},
			wantErr: "",
		},
		{
			name: "write into the user send buffer",
			corrupt: func(s *Schedule) {
				s.Rounds[0].Steps[0][0].Dst = sendRef(0, 1)
			},
			wantErr: "send buffer",
		},
		{
			name: "unknown step kind",
			corrupt: func(s *Schedule) {
				s.Rounds[0].Steps[0][0].Kind = Kind(200)
			},
			wantErr: "unknown step kind",
		},
		{
			name: "reduce step in a routing schedule",
			corrupt: func(s *Schedule) {
				s.Rounds[0].Steps[0][0].Kind = Reduce
			},
			wantErr: "reduce step in a alltoall schedule",
		},
		{
			name: "peer out of range",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].To = int32(s.Ranks)
			},
			wantErr: "out of range",
		},
		{
			name: "self send",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].To = 0
			},
			wantErr: "",
		},
		{
			name: "unknown buffer space",
			corrupt: func(s *Schedule) {
				s.Rounds[1].Steps[0][0].Src.Buf = 9
			},
			wantErr: "unknown buffer space",
		},
		{
			name: "undelivered block",
			corrupt: func(s *Schedule) {
				// Drop the whole last round: every rank misses the block
				// from its farthest partner.
				s.Rounds = s.Rounds[:len(s.Rounds)-1]
			},
			wantErr: "never delivered",
		},
		{
			name: "overlapping copy ranges",
			corrupt: func(s *Schedule) {
				// The symbolic model would execute this slot by slot while
				// the executor memmoves: the verifier must reject overlap
				// rather than certify behavior the executor doesn't have.
				s.Scratch = []int{3}
				s.Rounds[0].Steps[0] = append(s.Rounds[0].Steps[0],
					Step{Kind: Copy, Src: sendRef(0, 2), Dst: scratchRef(0, 0, 2)},
					Step{Kind: Copy, Src: scratchRef(0, 0, 2), Dst: scratchRef(0, 1, 2)})
			},
			wantErr: "overlap",
		},
		{
			name: "non-positive scratch",
			corrupt: func(s *Schedule) {
				s.Scratch = []int{0}
			},
			wantErr: "scratch",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := mustGen(t, "pairwise", 6)
			if err := Verify(s); err != nil {
				t.Fatalf("pristine schedule rejected: %v", err)
			}
			tc.corrupt(s)
			err := Verify(s)
			if err == nil {
				t.Fatalf("corrupted schedule (%s) verified", tc.name)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestVerifyRejectsSameRoundRaces builds the races the round discipline
// cannot tolerate by hand and checks the verifier names them.
func TestVerifyRejectsSameRoundRaces(t *testing.T) {
	t.Parallel()
	// Base: 2 ranks, scratch of 2 blocks, a valid exchange plus the
	// mutation under test.
	base := func() *Schedule {
		return &Schedule{
			Format: FormatVersion, Name: "hand", Ranks: 2, Scratch: []int{2},
			Rounds: []Round{{Steps: [][]Step{
				{
					selfCopy(0),
					{Kind: SendRecv, To: 1, Src: sendRef(1, 1), From: 1, Dst: recvRef(1, 1)},
				},
				{
					selfCopy(1),
					{Kind: SendRecv, To: 0, Src: sendRef(0, 1), From: 0, Dst: recvRef(0, 1)},
				},
			}}},
		}
	}
	if err := Verify(base()); err != nil {
		t.Fatalf("base schedule rejected: %v", err)
	}

	t.Run("copy reads same-round received data", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps[0] = append(s.Rounds[0].Steps[0],
			Step{Kind: Copy, Src: recvRef(1, 1), Dst: scratchRef(0, 0, 1)})
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "received in the same round") {
			t.Fatalf("race not caught: %v", err)
		}
	})
	t.Run("copy overwrites same-round receive target", func(t *testing.T) {
		t.Parallel()
		s := base()
		// The self copy already writes recv[0]; make rank 0's receive
		// land on the same slot.
		s.Rounds[0].Steps[0][1].Dst = recvRef(0, 1)
		if err := Verify(s); err == nil {
			t.Fatal("overlapping copy/receive writes verified")
		}
	})
	t.Run("copy overwrites an issued send's buffer", func(t *testing.T) {
		t.Parallel()
		s := base()
		// Stage through scratch so the conflicting write is legal in
		// space terms: copy to scratch, send scratch, copy over scratch.
		s.Rounds[0].Steps[0] = []Step{
			selfCopy(0),
			{Kind: Copy, Src: sendRef(1, 1), Dst: scratchRef(0, 0, 1)},
			{Kind: SendRecv, To: 1, Src: scratchRef(0, 0, 1), From: 1, Dst: recvRef(1, 1)},
			{Kind: Copy, Src: sendRef(0, 1), Dst: scratchRef(0, 0, 1)},
		}
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "transmitting") {
			t.Fatalf("send-buffer overwrite not caught: %v", err)
		}
	})
	t.Run("copy reads undefined scratch", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps[0] = append([]Step{
			{Kind: Copy, Src: scratchRef(0, 1, 1), Dst: scratchRef(0, 0, 1)},
		}, s.Rounds[0].Steps[0]...)
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "undefined") {
			t.Fatalf("undefined read not caught: %v", err)
		}
	})
	t.Run("two messages between one pair", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps[0] = append(s.Rounds[0].Steps[0],
			Step{Kind: Send, To: 1, Src: sendRef(1, 1)})
		s.Rounds[0].Steps[1] = append(s.Rounds[0].Steps[1],
			Step{Kind: Recv, From: 0, Dst: scratchRef(0, 0, 1)})
		err := Verify(s)
		if err == nil || !strings.Contains(err.Error(), "two") {
			t.Fatalf("double message not caught: %v", err)
		}
	})
	t.Run("round with wrong rank fanout", func(t *testing.T) {
		t.Parallel()
		s := base()
		s.Rounds[0].Steps = s.Rounds[0].Steps[:1]
		if err := Verify(s); err == nil {
			t.Fatal("truncated round verified")
		}
	})
	t.Run("nil and empty", func(t *testing.T) {
		t.Parallel()
		if err := Verify(nil); err == nil {
			t.Fatal("nil schedule verified")
		}
		if err := Verify(&Schedule{Ranks: 2}); err == nil {
			t.Fatal("round-less schedule verified")
		}
	})
}

// TestVerifierErrorText pins the full text of one rejection per context
// form of both drivers: the same edit to rank 1's program, checked by
// Verify's world driver on the schedule and by VerifyRank's lone driver
// on the slice. An empty stream means VerifyRank reports the same text
// as Verify.
func TestVerifierErrorText(t *testing.T) {
	t.Parallel()
	const p, rank = 4, 1
	cases := []struct {
		name, gen    string
		round, step  int
		edit         func(st *Step)
		full, stream string
	}{
		{
			name: "recv dst", gen: "direct", round: 0, step: 1,
			edit: func(st *Step) { st.Dst.Off = p },
			full: "sched: round 0 rank 1 step 1 (recv) dst: range 4+1 out of space 1 (4 blocks)",
		},
		{
			name: "copy src", gen: "direct", round: 0, step: 0,
			edit: func(st *Step) { st.Src.Off = p },
			full: "sched: round 0 rank 1 step 0 (copy) src: range 4+1 out of space 0 (4 blocks)",
		},
		{
			name: "copy dst", gen: "direct", round: 0, step: 0,
			edit: func(st *Step) { st.Dst.Off = 9 },
			full: "sched: round 0 rank 1 step 0 (copy) dst: range 9+1 out of space 1 (4 blocks)",
		},
		{
			name: "copy", gen: "direct", round: 0, step: 0,
			edit: func(st *Step) { st.Src.N = 2 },
			full: "sched: round 0 rank 1 step 0 (copy): length mismatch src 2, dst 1",
		},
		{
			name: "sendrecv src", gen: "pairwise", round: 1, step: 0,
			edit: func(st *Step) { st.Src.Off = p },
			full: "sched: round 1 rank 1 step 0 (sendrecv) src: range 4+1 out of space 0 (4 blocks)",
		},
		{
			// Round 2's message 3->1 lands on the self block round 0
			// already delivered.
			name: "delivery", gen: "pairwise", round: 2, step: 0,
			edit:   func(st *Step) { st.Dst.Off = rank },
			full:   "sched: round 2 message 3->1: recv block 1 of rank 1 written more than once (block delivered twice)",
			stream: "sched: round 2 rank 1 delivery: recv block 1 of rank 1 written more than once (block delivered twice)",
		},
	}
	for _, tc := range cases {
		s := mustGen(t, tc.gen, p)
		tc.edit(&s.Rounds[tc.round].Steps[rank][tc.step])
		if err := Verify(s); err == nil || err.Error() != tc.full {
			t.Errorf("%s: Verify = %v\n want %s", tc.name, err, tc.full)
		}
		rp, err := GenerateRank(tc.gen, p, rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(&rp.Rounds[tc.round][tc.step])
		want := tc.stream
		if want == "" {
			want = tc.full
		}
		if err := VerifyRank(rp); err == nil || err.Error() != want {
			t.Errorf("%s: VerifyRank = %v\n want %s", tc.name, err, want)
		}
	}
}

// TestVerifyChecksShapeBeforeSizing: a 62-byte file declaring 4,000
// ranks but holding an empty round is rejected for its step-list count
// before the verifier sizes any per-rank state. Not parallel: it reads
// the process-wide allocation counter.
func TestVerifyChecksShapeBeforeSizing(t *testing.T) {
	const file = `{"format":2,"name":"x","ranks":4000,"rounds":[{"steps":[]}]}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Decode(strings.NewReader(file))
	if err == nil {
		err = Verify(s)
	}
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "round 0 has 0 step lists") {
		t.Fatalf("Verify = %v, want the round 0 step-list count error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting the file allocated %d bytes, want under 1 MB", n)
	}
}

// allocatedBy returns the bytes f allocates. Callers must not run in
// parallel: it reads the process-wide allocation counter.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVerifyStateFollowsSteps: files declaring a billion-block scratch
// space or 8,000 ranks, but holding no steps, are rejected as never
// delivering a block, without sizing any state by the declarations. Not
// parallel: it reads the process-wide allocation counter.
func TestVerifyStateFollowsSteps(t *testing.T) {
	files := map[string]string{"declared scratch": hugeScratchFile, "declared ranks": manyRanksFile}
	for name, file := range files {
		var err error
		n := allocatedBy(func() {
			var s *Schedule
			if s, err = Decode(strings.NewReader(file)); err == nil {
				err = Verify(s)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "never delivered") {
			t.Errorf("%s (%d bytes): Verify = %v, want a never-delivered block", name, len(file), err)
		}
		if n >= 8<<20 {
			t.Errorf("%s (%d bytes): rejecting it allocated %d bytes, want under 8 MB", name, len(file), n)
		}
	}
}

// TestVerifyBudgetsCells: hugeRecvFile, whose one receive lands a
// billion blocks in a declared billion-block scratch space, is rejected
// for taking its walker past the cell budget its header sets, naming the
// rank, the step and the space — by VerifyRank as a rank program and by
// Verify as rank 0 of a 2-rank schedule — while allocating under 8 MB.
// Not parallel: it reads the process-wide allocation counter.
func TestVerifyBudgetsCells(t *testing.T) {
	const want = "sched: round 0 rank 0 step 1 (recv) dst: slot 24 of space 2 would take the walker past its budget of 28 cells"
	rp, err := DecodeRank(strings.NewReader(hugeRecvFile))
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{Format: FormatVersion, Name: rp.Name, Ranks: rp.Ranks, Scratch: rp.Scratch,
		Rounds: []Round{{Steps: [][]Step{rp.Rounds[0], {{Kind: Send, To: 0, Src: sendRef(0, 1)}}}}}}
	for name, verify := range map[string]func() error{
		"VerifyRank": func() error { return VerifyRank(rp) },
		"Verify":     func() error { return Verify(s) },
	} {
		n := allocatedBy(func() { err = verify() })
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s = %v, want %s...", name, err, want)
		}
		if n >= 8<<20 {
			t.Errorf("%s allocated %d bytes rejecting the program, want under 8 MB", name, n)
		}
	}
}

// aliasingProgram is rank 0 of the 2-rank direct schedule with scratch
// spaces of size and 1 blocks and a prepended round that writes slot
// size-1 of space 0, then reads slot 0 of space 1, which nothing wrote.
// At size 2^31 the first is the farthest slot a ref's int32 offset
// reaches, and the two slots would share a key packed as buf<<31|off.
func aliasingProgram(t testing.TB, size int) *RankProgram {
	rp, err := GenerateRank("direct", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp.Scratch = []int{size, 1}
	rp.Rounds = append([][]Step{{
		{Kind: Copy, Src: sendRef(1, 1), Dst: scratchRef(0, size-1, 1)},
		{Kind: Copy, Src: scratchRef(1, 0, 1), Dst: scratchRef(0, 0, 1)},
	}}, rp.Rounds...)
	return rp
}

// TestVerifyRankScratchAliasing: scratch slot 2^31-1 of space 0 and slot
// 0 of space 1 are distinct slots, however the walker keys them, so
// reading the second before anything wrote it is an undefined read.
func TestVerifyRankScratchAliasing(t *testing.T) {
	t.Parallel()
	for _, size := range []int{1 << 31, 1} {
		rp := aliasingProgram(t, size)
		if err := VerifyRank(rp); err == nil || !strings.Contains(err.Error(), "reads undefined data") {
			t.Errorf("scratch %v: VerifyRank = %v, want an undefined read", rp.Scratch, err)
		}
	}
}

// TestVerifyTorusAllocs: Verify of the 128-rank torus, whose route
// schedule declares 128^2 transit slots per rank and touches about a
// thousand, allocates by the slots its steps touch. Not parallel: it
// reads the process-wide allocation counter.
func TestVerifyTorusAllocs(t *testing.T) {
	s := mustGen(t, "torus", 128)
	var err error
	n := allocatedBy(func() { err = Verify(s) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Verify of torus@128 allocated %d bytes", n)
	if n >= 16<<20 {
		t.Errorf("Verify of torus@128 allocated %d bytes, want under 16 MB", n)
	}
}

// TestVerifyRejectsAlltoallv: artifacts of the removed alltoallv
// collective, a world and a rank program, still decode, since decoding
// drops the fields only alltoallv had; Verify, VerifyRank and VerifyRank
// of every slice of the world must each refuse the collective by name.
func TestVerifyRejectsAlltoallv(t *testing.T) {
	t.Parallel()
	const want = `sched: unknown collective "alltoallv"`
	s, err := Decode(strings.NewReader(alltoallvWorldFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s); err == nil || err.Error() != want {
		t.Errorf("Verify = %v, want %s", err, want)
	}
	rps := make([]*RankProgram, 0, s.Ranks+1)
	for r := range s.Ranks {
		rp, err := Slice(s, r)
		if err != nil {
			t.Fatal(err)
		}
		rps = append(rps, rp)
	}
	rp, err := DecodeRank(strings.NewReader(alltoallvRankFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range append(rps, rp) {
		if err := VerifyRank(rp); err == nil || err.Error() != want {
			t.Errorf("VerifyRank of rank %d = %v, want %s", rp.Rank, err, want)
		}
	}
}

// TestVerifyRankRejectsRankOutOfRange: a program built in memory, which
// no decoder checked, naming a rank outside its world is rejected by
// name rather than walked.
func TestVerifyRankRejectsRankOutOfRange(t *testing.T) {
	t.Parallel()
	for _, rank := range []int{-1, 4} {
		rp, err := GenerateRank("rs-ring", 4, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rp.Rank = rank
		if err := VerifyRank(rp); err == nil || !strings.Contains(err.Error(), "out of range 0..3") {
			t.Errorf("rank %d: VerifyRank = %v, want the rank out of range", rank, err)
		}
	}
}
