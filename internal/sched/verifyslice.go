package sched

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"alltoallx/internal/topo"
)

// Large-world verification. The full verifier (verify.go) symbolically
// executes the assembled schedule — O(p · slots) state — which is exactly
// the cost rank-sliced compilation exists to avoid. This file proves what
// can be proved from one rank slice at a time, in O(p) persistent memory:
//
//   - every local check of the full verifier, per slice: structure, refs
//     in range (per-rank count sums for alltoallv), peers in range, no
//     writes into the user send buffer, the same-round race rules (no
//     read of received data, no overlapping writes, no copy over an
//     issued send's buffer), no undefined reads, the reduction rules
//     (Reduce only in reduction schedules, Step.Op matching the
//     schedule's label, no locally detectable double contribution), and
//     — because a rank's recv buffer is written only by its own steps —
//     the exactly-once delivery accounting for every recv slot, with
//     content checked whenever the written value is locally known;
//   - cross-rank round pairing, incrementally: per round, the send and
//     receive (from, to, length) multisets must agree. Each slice folds
//     its messages into per-round count and commutative-hash
//     accumulators; Finish compares them. Combined with the local
//     duplicate checks this proves one message per ordered pair per round
//     and deadlock-freedom under the round discipline, with multiset
//     equality holding up to a 64-bit hash collision. For alltoallv the
//     same construction proves the per-pair count declarations
//     consistent: every slice folds its VSend row and VRecv column into
//     (src, dst, count) multiset fingerprints that must agree at Finish.
//
// What streaming cannot prove is that a multi-hop block arrives with the
// right *content*, or that a wire-carried partial is complete (both need
// cross-rank dataflow). Below core's slicing threshold the full verifier
// remains authoritative, and property tests pin GenerateRank
// byte-identical to Generate at randomized shapes — so the content proof
// transfers to the sliced path by construction.

// VerifyRank runs every local check on one rank's program. It does not
// prove cross-rank properties; stream all slices through a StreamVerifier
// (or VerifyWorldSliced) for those.
func VerifyRank(rp *RankProgram) error {
	if rp == nil {
		return errors.New("sched: nil rank program")
	}
	if err := checkRanks(rp.Ranks); err != nil {
		return err
	}
	sv := NewStreamVerifier(rp.Ranks)
	return sv.Add(rp)
}

// Symbolic slot values beyond locally known ones: slotUndef marks
// never-written slots, slotUnknown data that arrived over the wire
// (defined, but its identity is not locally derivable). Known values are
// collective-specific: for the routing collectives, the local send-space
// offset the data originated at (the self block/blocks — the only
// content a slice can name); for the reductions, blk<<1|1 — a partial of
// result block blk containing this rank's own contribution.
const (
	slotUndef   int64 = -1
	slotUnknown int64 = -2
)

// msgHash folds one message's round, endpoints and length into a 64-bit
// value; per-round sums of these are the commutative multiset
// fingerprints Finish compares. The alltoallv count declarations reuse
// it with ri = -1.
func msgHash(ri, from, to, n int) uint64 {
	x := uint64(ri)
	for _, v := range [3]int{from, to, n} {
		x = (x ^ uint64(v)) * 0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
	}
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// roundAcc accumulates one round's cross-rank message fingerprints.
type roundAcc struct {
	sends, recvs         int
	sendHash, recvHash   uint64
	sendBlocks, recvBlks int
}

// StreamVerifier proves schedule properties incrementally over rank
// slices, in O(p + rounds) persistent memory (plus O(slice) transient per
// Add). Feed every rank's program exactly once (any order), then call
// Finish.
type StreamVerifier struct {
	p       int
	name    string
	coll    Coll
	op      string
	rounds  int
	scratch []int
	started bool
	seen    []bool
	nseen   int
	acc     []roundAcc
	// Alltoallv count-declaration fingerprints: every slice's VSend row
	// and VRecv column must describe the same matrix.
	vSendHash, vRecvHash     uint64
	vSendBlocks, vRecvBlocks int
}

// NewStreamVerifier returns a verifier expecting the slices of a p-rank
// world.
func NewStreamVerifier(p int) *StreamVerifier {
	return &StreamVerifier{p: p, seen: make([]bool, p)}
}

// checkSliceHeader validates one slice's collective-describing fields.
func checkSliceHeader(rp *RankProgram) error {
	coll := rp.Collective()
	if !coll.valid() {
		return fmt.Errorf("sched: unknown collective %q", coll)
	}
	if coll.reduction() != (rp.Op != "") {
		if rp.Op == "" {
			return fmt.Errorf("sched: %s rank program must declare its operator label", coll)
		}
		return fmt.Errorf("sched: operator label %q on a non-reduction %s rank program", rp.Op, coll)
	}
	if coll == CollAlltoallv {
		if len(rp.VSend) != rp.Ranks || len(rp.VRecv) != rp.Ranks {
			return fmt.Errorf("sched: alltoallv rank program must declare %d-entry VSend and VRecv counts (have %d and %d)",
				rp.Ranks, len(rp.VSend), len(rp.VRecv))
		}
		for d, n := range rp.VSend {
			if n < 0 {
				return fmt.Errorf("sched: negative count %d for pair %d->%d", n, rp.Rank, d)
			}
		}
		for s, n := range rp.VRecv {
			if n < 0 {
				return fmt.Errorf("sched: negative count %d for pair %d->%d", n, s, rp.Rank)
			}
		}
		if rp.VSend[rp.Rank] != rp.VRecv[rp.Rank] {
			return fmt.Errorf("sched: rank %d declares self count %d in VSend but %d in VRecv",
				rp.Rank, rp.VSend[rp.Rank], rp.VRecv[rp.Rank])
		}
	} else if rp.VSend != nil || rp.VRecv != nil {
		return fmt.Errorf("sched: per-pair counts on a non-alltoallv %s rank program", coll)
	}
	return nil
}

// Add verifies one rank's slice locally and folds its cross-rank
// fingerprints into the stream state.
func (sv *StreamVerifier) Add(rp *RankProgram) error {
	if rp == nil {
		return errors.New("sched: nil rank program")
	}
	p := sv.p
	if rp.Ranks != p {
		return fmt.Errorf("sched: rank program compiled for %d ranks, stream expects %d", rp.Ranks, p)
	}
	if rp.Rank < 0 || rp.Rank >= p {
		return fmt.Errorf("sched: rank program rank %d out of range 0..%d", rp.Rank, p-1)
	}
	if sv.seen[rp.Rank] {
		return fmt.Errorf("sched: rank %d streamed twice", rp.Rank)
	}
	if len(rp.Rounds) == 0 {
		return fmt.Errorf("sched: rank %d program has no rounds (even the trivial schedule needs the self-block copy)", rp.Rank)
	}
	for i, sz := range rp.Scratch {
		if sz <= 0 {
			return fmt.Errorf("sched: scratch space %d has non-positive size %d", i, sz)
		}
	}
	if err := checkSliceHeader(rp); err != nil {
		return err
	}
	if !sv.started {
		sv.started = true
		sv.name = rp.Name
		sv.coll = rp.Collective()
		sv.op = rp.Op
		sv.rounds = len(rp.Rounds)
		sv.scratch = append([]int(nil), rp.Scratch...)
		sv.acc = make([]roundAcc, sv.rounds)
	} else {
		if rp.Name != sv.name {
			return fmt.Errorf("sched: rank %d program is %q, stream carries %q", rp.Rank, rp.Name, sv.name)
		}
		if rp.Collective() != sv.coll {
			return fmt.Errorf("sched: rank %d program is a %s, stream carries %s", rp.Rank, rp.Collective(), sv.coll)
		}
		if rp.Op != sv.op {
			return fmt.Errorf("sched: rank %d program declares operator %q, stream carries %q", rp.Rank, rp.Op, sv.op)
		}
		if len(rp.Rounds) != sv.rounds {
			return fmt.Errorf("sched: rank %d program has %d rounds, stream carries %d", rp.Rank, len(rp.Rounds), sv.rounds)
		}
		if len(rp.Scratch) != len(sv.scratch) {
			return fmt.Errorf("sched: rank %d program declares %d scratch spaces, stream carries %d", rp.Rank, len(rp.Scratch), len(sv.scratch))
		}
		for i, sz := range rp.Scratch {
			if sz != sv.scratch[i] {
				return fmt.Errorf("sched: rank %d scratch space %d has size %d, stream carries %d", rp.Rank, i, sz, sv.scratch[i])
			}
		}
	}
	if rp.Collective() == CollAlltoallv {
		for d, n := range rp.VSend {
			sv.vSendHash += msgHash(-1, rp.Rank, d, n)
			sv.vSendBlocks += n
		}
		for s, n := range rp.VRecv {
			sv.vRecvHash += msgHash(-1, s, rp.Rank, n)
			sv.vRecvBlocks += n
		}
	}
	if err := sv.walk(rp); err != nil {
		return err
	}
	sv.seen[rp.Rank] = true
	sv.nseen++
	return nil
}

// sliceState is the transient per-slice symbolic machine: recv space and
// scratch slot values, recv write counters, and the per-round race
// stamps, all keyed sparsely so memory stays O(touched slots).
type sliceState struct {
	rp        *RankProgram
	coll      Coll
	reduction bool
	sendSize  int
	recvVal   []int64         // recv-space slot values
	recvCount []uint8         // recv-space writes, must end at exactly 1
	scratch   map[int64]int64 // scratch slot -> value
	recvStamp map[int64]int   // slot -> round a receive writes it
	readStamp map[int64]int   // slot -> round an issued send reads it
	// selfRowOff/selfColOff/selfCount locate the self message in the
	// packed routing layouts: this rank's own blocks occupy send offsets
	// [selfRowOff, selfRowOff+selfCount) and must land at recv offsets
	// [selfColOff, selfColOff+selfCount). (For alltoall both offsets are
	// the rank and the count is 1.)
	selfRowOff, selfColOff, selfCount int
	// fromSeen/toSeen detect duplicate per-round peers, stamped by
	// round+1 so one allocation serves every round of the slice.
	fromSeen, toSeen []int32
}

// slotKey identifies a slot of one buffer space.
func slotKey(buf, off int) int64 { return int64(buf)<<40 | int64(off) }

// checkRef validates a buffer reference against the program's spaces.
func (st *sliceState) checkRef(ref Ref, where stepLoc) error {
	size := st.rp.SpaceSize(ref.Buf)
	if size < 0 {
		return fmt.Errorf("%s: unknown buffer space %d", where, ref.Buf)
	}
	if ref.N <= 0 {
		return fmt.Errorf("%s: non-positive length %d", where, ref.N)
	}
	if ref.Off < 0 || ref.Off+ref.N > size {
		return fmt.Errorf("%s: range %d+%d out of space %d (%d blocks)", where, ref.Off, ref.N, ref.Buf, size)
	}
	return nil
}

// read returns the symbolic value of one slot.
func (st *sliceState) read(buf, off int) int64 {
	switch buf {
	case SpaceSend:
		// The send buffer is read-only and pre-filled. Routing: slot off
		// holds the block this rank sends from offset off. Reduction:
		// slot off holds this rank's own contribution to result block
		// off.
		if st.reduction {
			return int64(off)<<1 | 1
		}
		return int64(off)
	case SpaceRecv:
		return st.recvVal[off]
	}
	v, ok := st.scratch[slotKey(buf, off)]
	if !ok {
		return slotUndef
	}
	return v
}

// write stores a symbolic value, enforcing the exactly-once and
// known-content disciplines on the recv space.
func (st *sliceState) write(buf, off int, val int64, where stepLoc) error {
	if buf == SpaceRecv {
		st.recvCount[off]++
		if st.recvCount[off] > 1 {
			return fmt.Errorf("%s: recv block %d of rank %d written more than once (block delivered twice)", where, off, st.rp.Rank)
		}
		if val >= 0 {
			if st.reduction {
				blk := int(val >> 1)
				want := st.rp.Rank // reduce-scatter: the single recv block is this rank's result
				if st.coll == CollAllreduce {
					want = off
				}
				if blk != want {
					return fmt.Errorf("%s: recv block %d of rank %d receives the result of block %d, want %d", where, off, st.rp.Rank, blk, want)
				}
			} else if val-int64(st.selfRowOff) != int64(off-st.selfColOff) ||
				val < int64(st.selfRowOff) || val >= int64(st.selfRowOff+st.selfCount) {
				return fmt.Errorf("%s: recv block %d of rank %d receives own send block %d, which belongs at %d",
					where, off, st.rp.Rank, val, int64(st.selfColOff)+val-int64(st.selfRowOff))
			}
		}
		st.recvVal[off] = val
		return nil
	}
	st.scratch[slotKey(buf, off)] = val
	return nil
}

// walk symbolically executes one slice, mirroring the full verifier's
// round logic restricted to this rank's steps, and accumulates the
// cross-rank fingerprints.
func (sv *StreamVerifier) walk(rp *RankProgram) error {
	p, r := sv.p, rp.Rank
	recvSize := rp.SpaceSize(SpaceRecv)
	st := &sliceState{
		rp:        rp,
		coll:      rp.Collective(),
		reduction: rp.Collective().reduction(),
		sendSize:  rp.SpaceSize(SpaceSend),
		recvVal:   make([]int64, recvSize),
		recvCount: make([]uint8, recvSize),
		scratch:   make(map[int64]int64),
		recvStamp: make(map[int64]int),
		readStamp: make(map[int64]int),
		fromSeen:  make([]int32, p),
		toSeen:    make([]int32, p),
	}
	switch st.coll {
	case CollAlltoallv:
		for d := 0; d < r; d++ {
			st.selfRowOff += rp.VSend[d]
		}
		for s := 0; s < r; s++ {
			st.selfColOff += rp.VRecv[s]
		}
		st.selfCount = rp.VSend[r]
	default:
		st.selfRowOff, st.selfColOff, st.selfCount = r, r, 1
	}
	for i := range st.recvVal {
		st.recvVal[i] = slotUndef
	}

	type pending struct {
		buf, off, n int
	}
	var delivers []pending
	for ri, steps := range rp.Rounds {
		stamp := ri + 1
		delivers = delivers[:0]

		// Pass 1: receive-written slots (their data lands at the round's
		// wait, so same-round reads and overlapping writes are races).
		for si, step := range steps {
			if step.Kind != Recv && step.Kind != SendRecv {
				continue
			}
			where := stepAt(ri, r, si, step.Kind).dst()
			if err := st.checkRef(step.Dst, where); err != nil {
				return err
			}
			if step.Dst.Buf == SpaceSend {
				return fmt.Errorf("%s: schedules must not write the user send buffer", where)
			}
			if step.From < 0 || step.From >= p || step.From == r {
				return fmt.Errorf("sched: round %d rank %d step %d: receive source %d out of range", ri, r, si, step.From)
			}
			if st.fromSeen[step.From] == int32(stamp) {
				return fmt.Errorf("sched: round %d: two receives from %d at %d (per-round tags would be ambiguous)", ri, step.From, r)
			}
			st.fromSeen[step.From] = int32(stamp)
			for k := 0; k < step.Dst.N; k++ {
				key := slotKey(step.Dst.Buf, step.Dst.Off+k)
				if st.recvStamp[key] == stamp {
					return fmt.Errorf("sched: round %d rank %d: two receives write slot %v in one round", ri, r, step.Dst.Off+k)
				}
				st.recvStamp[key] = stamp
			}
			delivers = append(delivers, pending{step.Dst.Buf, step.Dst.Off, step.Dst.N})
			sv.acc[ri].recvs++
			sv.acc[ri].recvBlks += step.Dst.N
			sv.acc[ri].recvHash += msgHash(ri, step.From, r, step.Dst.N)
		}

		// Pass 2: copies, reduces and sends in step order.
		for si, step := range steps {
			where := stepAt(ri, r, si, step.Kind)
			switch step.Kind {
			case Copy, Reduce:
				if err := st.checkRef(step.Src, where.src()); err != nil {
					return err
				}
				if err := st.checkRef(step.Dst, where.dst()); err != nil {
					return err
				}
				if step.Src.N != step.Dst.N {
					return fmt.Errorf("%s: length mismatch src %d, dst %d", where, step.Src.N, step.Dst.N)
				}
				if step.Dst.Buf == SpaceSend {
					return fmt.Errorf("%s: schedules must not write the user send buffer", where)
				}
				if step.Src.Buf == step.Dst.Buf && step.Src.Off < step.Dst.Off+step.Dst.N && step.Dst.Off < step.Src.Off+step.Src.N {
					return fmt.Errorf("%s: src %v and dst %v overlap", where, step.Src, step.Dst)
				}
				if step.Kind == Reduce {
					if !st.reduction {
						return fmt.Errorf("%s: reduce step in a %s schedule", where, st.coll)
					}
					if step.Op != rp.Op {
						return fmt.Errorf("%s: operator %q does not match the schedule's %q", where, step.Op, rp.Op)
					}
				}
				for k := 0; k < step.Src.N; k++ {
					skey := slotKey(step.Src.Buf, step.Src.Off+k)
					dkey := slotKey(step.Dst.Buf, step.Dst.Off+k)
					if st.recvStamp[skey] == stamp {
						return fmt.Errorf("%s: reads slot %d received in the same round (received data is only available in later rounds)", where, step.Src.Off+k)
					}
					if st.recvStamp[dkey] == stamp {
						return fmt.Errorf("%s: writes slot %d a same-round receive also writes", where, step.Dst.Off+k)
					}
					if st.readStamp[dkey] == stamp {
						return fmt.Errorf("%s: overwrites slot %d an earlier send of the round is transmitting", where, step.Dst.Off+k)
					}
					val := st.read(step.Src.Buf, step.Src.Off+k)
					if val == slotUndef {
						return fmt.Errorf("%s: reads undefined data at slot %d", where, step.Src.Off+k)
					}
					if step.Kind == Reduce {
						dval := st.read(step.Dst.Buf, step.Dst.Off+k)
						if dval == slotUndef {
							return fmt.Errorf("%s: reduces into undefined data at slot %d", where, step.Dst.Off+k)
						}
						sKnown, dKnown := val >= 0, dval >= 0
						if sKnown && dKnown && val>>1 != dval>>1 {
							return fmt.Errorf("%s: reduces a partial of block %d into a partial of block %d", where, val>>1, dval>>1)
						}
						if sKnown && dKnown && val&1 == 1 && dval&1 == 1 {
							return fmt.Errorf("%s: contribution of rank %d to block %d would enter twice (double contribution)", where, r, val>>1)
						}
						switch {
						case sKnown:
							// keep val: the combined partial carries the known block
						case dKnown:
							val = dval
						default:
							val = slotUnknown
						}
					}
					if err := st.write(step.Dst.Buf, step.Dst.Off+k, val, where); err != nil {
						return err
					}
				}
			case Send, SendRecv:
				if err := st.checkRef(step.Src, where.src()); err != nil {
					return err
				}
				if step.To < 0 || step.To >= p || step.To == r {
					return fmt.Errorf("%s: send destination %d out of range", where, step.To)
				}
				if st.toSeen[step.To] == int32(stamp) {
					return fmt.Errorf("sched: round %d: two sends from %d to %d (per-round tags would be ambiguous)", ri, r, step.To)
				}
				st.toSeen[step.To] = int32(stamp)
				for k := 0; k < step.Src.N; k++ {
					key := slotKey(step.Src.Buf, step.Src.Off+k)
					if st.recvStamp[key] == stamp {
						return fmt.Errorf("%s: sends slot %d received in the same round", where, step.Src.Off+k)
					}
					if st.read(step.Src.Buf, step.Src.Off+k) == slotUndef {
						return fmt.Errorf("%s: sends undefined data at slot %d", where, step.Src.Off+k)
					}
					st.readStamp[key] = stamp
				}
				sv.acc[ri].sends++
				sv.acc[ri].sendBlocks += step.Src.N
				sv.acc[ri].sendHash += msgHash(ri, r, step.To, step.Src.N)
			case Recv:
				// Handled in pass 1.
			default:
				return fmt.Errorf("%s: unknown step kind %q", where, step.Kind)
			}
		}

		// Deliver: received data lands at the round's wait, with contents
		// not locally derivable.
		where := deliveryAt(ri, r)
		for _, d := range delivers {
			for k := 0; k < d.n; k++ {
				if err := st.write(d.buf, d.off+k, slotUnknown, where); err != nil {
					return err
				}
			}
		}
	}

	// Delivery accounting: every recv slot of this rank written exactly
	// once (content was checked at write time whenever locally known).
	for d := 0; d < recvSize; d++ {
		if st.recvCount[d] != 1 {
			switch {
			case st.reduction:
				return fmt.Errorf("sched: result block %d of rank %d never produced", d, r)
			case st.coll == CollAlltoall:
				return fmt.Errorf("sched: block (%d->%d) never delivered", d, r)
			default:
				return fmt.Errorf("sched: recv block %d of rank %d never delivered", d, r)
			}
		}
	}
	return nil
}

// Finish checks the cross-rank properties once every slice has been
// added: full coverage, per-round matching send/receive multisets, and
// (alltoallv) consistent per-pair count declarations across slices.
func (sv *StreamVerifier) Finish() error {
	if sv.nseen != sv.p {
		for r, ok := range sv.seen {
			if !ok {
				return fmt.Errorf("sched: stream verification incomplete: rank %d missing (%d/%d seen)", r, sv.nseen, sv.p)
			}
		}
	}
	for ri, a := range sv.acc {
		if a.sends != a.recvs {
			return fmt.Errorf("sched: round %d: %d sends but %d receives posted (the round discipline would deadlock)", ri, a.sends, a.recvs)
		}
		if a.sendBlocks != a.recvBlks {
			return fmt.Errorf("sched: round %d: %d blocks sent but %d expected by receives", ri, a.sendBlocks, a.recvBlks)
		}
		if a.sendHash != a.recvHash {
			return fmt.Errorf("sched: round %d: send/receive (from, to, length) multisets differ (unmatched or mismatched message)", ri)
		}
	}
	if sv.coll == CollAlltoallv {
		if sv.vSendBlocks != sv.vRecvBlocks {
			return fmt.Errorf("sched: alltoallv count declarations disagree: %d blocks declared sent but %d declared received", sv.vSendBlocks, sv.vRecvBlocks)
		}
		if sv.vSendHash != sv.vRecvHash {
			return errors.New("sched: alltoallv count declarations disagree across slices (some pair's VSend and VRecv entries differ)")
		}
	}
	return nil
}

// ProveWorld streams every rank's GenerateRank slice of the named
// generator through a StreamVerifier and returns the Digest of every
// accepted slice, indexed by rank: the large-world proof. Memory stays
// O(p + one slice); time is O(total schedule size) — the same steps the
// world will execute, never the assembled schedule. A program whose
// digest equals its rank's entry is byte-identical to a slice that
// passed every check VerifyRank would repeat.
func ProveWorld(name string, p int, m *topo.Mapping) ([][sha256.Size]byte, error) {
	return proveSlices(p, func(r int) (*RankProgram, error) { return GenerateRank(name, p, r, m) })
}

// ProveSchedule is the whole-world proof for worlds small enough to
// assemble: Verify's full symbolic check of s, then ProveWorld's
// streamed pass over its slices, returning their digests.
func ProveSchedule(s *Schedule) ([][sha256.Size]byte, error) {
	if err := Verify(s); err != nil {
		return nil, err
	}
	return proveSlices(s.Ranks, func(r int) (*RankProgram, error) { return Slice(s, r) })
}

func proveSlices(p int, slice func(r int) (*RankProgram, error)) ([][sha256.Size]byte, error) {
	if err := checkRanks(p); err != nil {
		return nil, err
	}
	sv := NewStreamVerifier(p)
	digests := make([][sha256.Size]byte, p)
	for r := range digests {
		rp, err := slice(r)
		if err != nil {
			return nil, err
		}
		if err := sv.Add(rp); err != nil {
			return nil, err
		}
		digests[r] = rp.Digest()
	}
	if err := sv.Finish(); err != nil {
		return nil, err
	}
	return digests, nil
}

// VerifyWorldSliced is ProveWorld without the digests: the large-world
// verification mode.
func VerifyWorldSliced(name string, p int, m *topo.Mapping) error {
	_, err := ProveWorld(name, p, m)
	return err
}
