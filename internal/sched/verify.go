package sched

import (
	"errors"
	"fmt"
	"math/bits"
)

// Verify statically proves a schedule implements its collective's
// semantics before it ever runs. It checks, in order:
//
//   - structure: positive rank count, a step list per rank per round,
//     positive scratch sizes, known step kinds, peers in range, buffer
//     references in range (per-rank ranges for alltoallv), no writes
//     into the user send buffer, a well-formed header (Counts present
//     exactly for alltoallv, an operator label exactly for reductions);
//   - round pairing: every send is matched by a receive of the same
//     length within its round, at most one message per ordered rank pair
//     per round (so per-round tags are unambiguous) — deadlock-freedom
//     under the round discipline;
//   - data races the executor's ordering cannot tolerate: no copy, send
//     or reduce reads data received in the same round (received data
//     lands at the round's wait), no two same-round writes to one slot,
//     no copy or reduce overwriting a buffer an earlier send of the
//     round is transmitting;
//   - dataflow, by symbolic execution. For the routing collectives
//     (alltoall, alltoallv) every slot tracks which (src, dst) block it
//     holds, proving each recv slot is written exactly once and finally
//     holds exactly its block — exactly-count-per-pair delivery (the
//     count is 1 for alltoall, Counts[s][d] for alltoallv). For the
//     reduction collectives every slot tracks a partial: which result
//     block it contributes to and the set of ranks whose contributions
//     it contains. A Reduce step must combine partials of the same
//     block with disjoint contributor sets (rejecting wrong-block and
//     double-contribution corruption, and Step.Op must equal
//     Schedule.Op), and a recv slot must be written exactly once with a
//     complete partial — every rank's contribution entering exactly
//     once.
//
// The proof is per-schedule, not per-run: a verified schedule is correct
// for every block size on every substrate (and, for reductions, every
// associative commutative operator).
func Verify(s *Schedule) error {
	if s == nil {
		return errors.New("sched: nil schedule")
	}
	p := s.Ranks
	if err := checkRanks(p); err != nil {
		return err
	}
	if len(s.Rounds) == 0 {
		return errors.New("sched: schedule has no rounds (even the trivial schedule needs the self-block copy)")
	}
	for i, sz := range s.Scratch {
		if sz <= 0 {
			return fmt.Errorf("sched: scratch space %d has non-positive size %d", i, sz)
		}
	}
	if err := checkHeader(s.Collective(), s.Op, s.Counts, p); err != nil {
		return err
	}
	// Check the shape before newVerifier sizes its state by the declared
	// rank count, so a file declaring a large world it does not contain
	// costs nothing.
	for ri, rd := range s.Rounds {
		if len(rd.Steps) != p {
			return fmt.Errorf("sched: round %d has %d step lists, want one per rank (%d)", ri, len(rd.Steps), p)
		}
	}

	v := newVerifier(s)
	for ri := range s.Rounds {
		if err := v.round(ri); err != nil {
			return err
		}
	}
	return v.final()
}

// checkHeader validates the collective-describing header fields shared
// by Schedule (Counts as the full matrix) and RankProgram (counts nil;
// the slice's VSend/VRecv are checked by the stream verifier).
func checkHeader(coll Coll, op string, counts [][]int, p int) error {
	if !coll.valid() {
		return fmt.Errorf("sched: unknown collective %q", coll)
	}
	if coll.reduction() != (op != "") {
		if op == "" {
			return fmt.Errorf("sched: %s schedule must declare its operator label", coll)
		}
		return fmt.Errorf("sched: operator label %q on a non-reduction %s schedule", op, coll)
	}
	if (coll == CollAlltoallv) != (counts != nil) {
		if counts == nil {
			return errors.New("sched: alltoallv schedule must declare its per-pair counts")
		}
		return fmt.Errorf("sched: per-pair counts on a non-alltoallv %s schedule", coll)
	}
	if counts != nil {
		if len(counts) != p {
			return fmt.Errorf("sched: counts matrix has %d rows, want %d", len(counts), p)
		}
		for src, row := range counts {
			if len(row) != p {
				return fmt.Errorf("sched: counts row %d has %d entries, want %d", src, len(row), p)
			}
			for dst, n := range row {
				if n < 0 {
					return fmt.Errorf("sched: negative count %d for pair %d->%d", n, src, dst)
				}
			}
		}
	}
	return nil
}

// stepLoc names the step a verifier check concerns, for its error
// message. Both verifiers build one for every step they check, so it is
// a few words and is formatted only when a check fails.
type stepLoc struct {
	kind              Kind
	round, rank, step int32
	part              locPart
}

// locPart selects the form a stepLoc prints.
type locPart uint8

const (
	locStep     locPart = iota // sched: round R rank X step S (kind)
	locSrc                     // sched: round R rank X step S (kind) src
	locDst                     // sched: round R rank X step S (kind) dst
	locDelivery                // sched: round R rank X delivery
	locMessage                 // sched: round R message S->X (step holds the sender)
)

// stepAt locates step si of rank r in round ri.
func stepAt(ri, r, si int, kind Kind) stepLoc {
	return stepLoc{kind: kind, round: int32(ri), rank: int32(r), step: int32(si)}
}

// deliveryAt locates round ri's wire deliveries into rank r.
func deliveryAt(ri, r int) stepLoc {
	return stepLoc{round: int32(ri), rank: int32(r), part: locDelivery}
}

// messageAt locates round ri's message from -> to.
func messageAt(ri, from, to int) stepLoc {
	return stepLoc{round: int32(ri), rank: int32(to), step: int32(from), part: locMessage}
}

// src and dst narrow a step's location to one of its buffer operands.
func (l stepLoc) src() stepLoc { l.part = locSrc; return l }
func (l stepLoc) dst() stepLoc { l.part = locDst; return l }

func (l stepLoc) String() string {
	switch l.part {
	case locDelivery:
		return fmt.Sprintf("sched: round %d rank %d delivery", l.round, l.rank)
	case locMessage:
		return fmt.Sprintf("sched: round %d message %d->%d", l.round, l.step, l.rank)
	}
	s := fmt.Sprintf("sched: round %d rank %d step %d (%s)", l.round, l.rank, l.step, l.kind)
	switch l.part {
	case locSrc:
		s += " src"
	case locDst:
		s += " dst"
	}
	return s
}

// undef marks a slot holding no value.
const undef int64 = -1

// partial is the symbolic value of one slot of a reduction schedule: a
// sum over some contributor set for one result block.
type partial struct {
	blk  int
	mask []uint64
}

// verifier is the symbolic machine: one slot array per rank covering all
// buffer spaces. Slot values are block ids for the routing collectives
// and indices into the partials table for the reductions.
type verifier struct {
	s         *Schedule
	p         int
	coll      Coll
	reduction bool
	// Per-rank space layout: send is [0, sendSize[r]), recv follows, then
	// the scratch spaces (scratchOff are offsets past send+recv).
	sendSize, recvSize []int
	scratchOff         []int
	scratchTot         int
	// expect[r][off] is the block id a routing collective must deliver
	// into recv slot off of rank r.
	expect [][]int64
	state  [][]int64
	// recvWritten counts writes into the recv space (per rank, per slot):
	// each must end at exactly 1.
	recvWritten [][]uint8
	// stamp arrays mark per-round slot roles without reallocation: a slot
	// is marked for round ri when the entry equals ri+1.
	recvStamp [][]int32 // slot is written by a receive this round
	readStamp [][]int32 // slot is read by an already-issued send this round
	// parts is the reduction partials table; maskWords its bitset width.
	parts     []partial
	maskWords int
}

func newVerifier(s *Schedule) *verifier {
	p := s.Ranks
	v := &verifier{s: s, p: p, coll: s.Collective(), reduction: s.Collective().reduction()}
	v.scratchOff = make([]int, len(s.Scratch))
	for i, sz := range s.Scratch {
		v.scratchOff[i] = v.scratchTot
		v.scratchTot += sz
	}
	v.sendSize = make([]int, p)
	v.recvSize = make([]int, p)
	for r := 0; r < p; r++ {
		v.sendSize[r] = s.SpaceSizeRank(r, SpaceSend)
		v.recvSize[r] = s.SpaceSizeRank(r, SpaceRecv)
	}
	v.state = make([][]int64, p)
	v.recvWritten = make([][]uint8, p)
	v.recvStamp = make([][]int32, p)
	v.readStamp = make([][]int32, p)
	v.maskWords = (p + 63) / 64

	// Routing seeds are global block ids; for alltoallv they index the
	// row-packed concatenation of all count rows, so the expected recv
	// content of slot colOff[r][s]+j is the id of the j-th block of the
	// s->r message.
	var rowBase []int64
	if v.coll == CollAlltoallv {
		rowBase = make([]int64, p+1)
		for r := 0; r < p; r++ {
			rowBase[r+1] = rowBase[r] + int64(v.sendSize[r])
		}
		v.expect = make([][]int64, p)
		for r := 0; r < p; r++ {
			v.expect[r] = make([]int64, 0, v.recvSize[r])
			for src := 0; src < p; src++ {
				off := int64(0)
				for d := 0; d < r; d++ {
					off += int64(s.Counts[src][d])
				}
				for j := 0; j < s.Counts[src][r]; j++ {
					v.expect[r] = append(v.expect[r], rowBase[src]+off+int64(j))
				}
			}
		}
	}

	for r := 0; r < p; r++ {
		slots := v.sendSize[r] + v.recvSize[r] + v.scratchTot
		st := make([]int64, slots)
		for i := range st {
			st[i] = undef
		}
		for b := 0; b < v.sendSize[r]; b++ {
			switch {
			case v.reduction:
				st[b] = int64(len(v.parts))
				mask := make([]uint64, v.maskWords)
				mask[r/64] |= 1 << (r % 64)
				v.parts = append(v.parts, partial{blk: b, mask: mask})
			case v.coll == CollAlltoallv:
				st[b] = rowBase[r] + int64(b)
			default:
				st[b] = int64(r)*int64(v.p) + int64(b)
			}
		}
		v.state[r] = st
		v.recvWritten[r] = make([]uint8, v.recvSize[r])
		v.recvStamp[r] = make([]int32, slots)
		v.readStamp[r] = make([]int32, slots)
	}
	return v
}

// checkRef validates a buffer reference against rank's space layout and
// returns its first slot index.
func (v *verifier) checkRef(rank int, ref Ref, where stepLoc) (int, error) {
	var size, base int
	switch {
	case ref.Buf == SpaceSend:
		size, base = v.sendSize[rank], 0
	case ref.Buf == SpaceRecv:
		size, base = v.recvSize[rank], v.sendSize[rank]
	case ref.Buf >= SpaceScratch && ref.Buf < SpaceScratch+len(v.s.Scratch):
		size = v.s.Scratch[ref.Buf-SpaceScratch]
		base = v.sendSize[rank] + v.recvSize[rank] + v.scratchOff[ref.Buf-SpaceScratch]
	default:
		return 0, fmt.Errorf("%s: unknown buffer space %d", where, ref.Buf)
	}
	if ref.N <= 0 {
		return 0, fmt.Errorf("%s: non-positive length %d", where, ref.N)
	}
	if ref.Off < 0 || ref.Off+ref.N > size {
		return 0, fmt.Errorf("%s: range %d+%d out of space %d (%d blocks)", where, ref.Off, ref.N, ref.Buf, size)
	}
	return base + ref.Off, nil
}

// recvSlotBase returns the slot index of rank's recv space.
func (v *verifier) recvSlotBase(rank int) int { return v.sendSize[rank] }

// pairKey identifies a directed message within one round.
type pairKey struct{ from, to int }

// pendingRecv is a posted receive awaiting its round's delivery.
type pendingRecv struct {
	rank int
	slot int
	n    int
}

// round verifies and symbolically executes round ri.
func (v *verifier) round(ri int) error {
	rd := v.s.Rounds[ri]
	stamp := int32(ri + 1)
	sends := make(map[pairKey][]int64)
	recvs := make(map[pairKey]pendingRecv)

	// Pass 1: collect receive-written slots (their data lands at the
	// round's wait, so same-round reads and overlapping writes are races).
	for r := 0; r < v.p; r++ {
		for si, step := range rd.Steps[r] {
			if step.Kind != Recv && step.Kind != SendRecv {
				continue
			}
			where := stepAt(ri, r, si, step.Kind).dst()
			slot, err := v.checkRef(r, step.Dst, where)
			if err != nil {
				return err
			}
			if step.Dst.Buf == SpaceSend {
				return fmt.Errorf("%s: schedules must not write the user send buffer", where)
			}
			if step.From < 0 || step.From >= v.p || step.From == r {
				return fmt.Errorf("sched: round %d rank %d step %d: receive source %d out of range", ri, r, si, step.From)
			}
			key := pairKey{step.From, r}
			if _, dup := recvs[key]; dup {
				return fmt.Errorf("sched: round %d: two receives from %d at %d (per-round tags would be ambiguous)", ri, step.From, r)
			}
			recvs[key] = pendingRecv{rank: r, slot: slot, n: step.Dst.N}
			for k := 0; k < step.Dst.N; k++ {
				if v.recvStamp[r][slot+k] == stamp {
					return fmt.Errorf("sched: round %d rank %d: two receives write slot %d in one round", ri, r, slot+k)
				}
				v.recvStamp[r][slot+k] = stamp
			}
		}
	}

	// Pass 2: walk copies, reduces and sends in step order per rank,
	// maintaining the symbolic state; snapshot send payloads at issue
	// position.
	for r := 0; r < v.p; r++ {
		for si, step := range rd.Steps[r] {
			where := stepAt(ri, r, si, step.Kind)
			switch step.Kind {
			case Copy, Reduce:
				src, err := v.checkRef(r, step.Src, where.src())
				if err != nil {
					return err
				}
				dst, err := v.checkRef(r, step.Dst, where.dst())
				if err != nil {
					return err
				}
				if step.Src.N != step.Dst.N {
					return fmt.Errorf("%s: length mismatch src %d, dst %d", where, step.Src.N, step.Dst.N)
				}
				if step.Dst.Buf == SpaceSend {
					return fmt.Errorf("%s: schedules must not write the user send buffer", where)
				}
				// Overlapping ranges are rejected outright: the symbolic
				// slot-by-slot model below and the executor's memmove
				// semantics (comm.CopyData) disagree on them, so a schedule
				// relying on overlap would verify against behavior the
				// executor does not have. (For Reduce, overlap would also
				// mean combining a partial into itself.)
				if step.Src.Buf == step.Dst.Buf && step.Src.Off < step.Dst.Off+step.Dst.N && step.Dst.Off < step.Src.Off+step.Src.N {
					return fmt.Errorf("%s: src %v and dst %v overlap", where, step.Src, step.Dst)
				}
				if step.Kind == Reduce {
					if !v.reduction {
						return fmt.Errorf("%s: reduce step in a %s schedule", where, v.coll)
					}
					if step.Op != v.s.Op {
						return fmt.Errorf("%s: operator %q does not match the schedule's %q", where, step.Op, v.s.Op)
					}
				}
				for k := 0; k < step.Src.N; k++ {
					if v.recvStamp[r][src+k] == stamp {
						return fmt.Errorf("%s: reads slot %d received in the same round (received data is only available in later rounds)", where, src+k)
					}
					if v.recvStamp[r][dst+k] == stamp {
						return fmt.Errorf("%s: writes slot %d a same-round receive also writes", where, dst+k)
					}
					if v.readStamp[r][dst+k] == stamp {
						return fmt.Errorf("%s: overwrites slot %d an earlier send of the round is transmitting", where, dst+k)
					}
					val := v.state[r][src+k]
					if val == undef {
						return fmt.Errorf("%s: reads undefined data at slot %d", where, src+k)
					}
					if step.Kind == Reduce {
						if val, err = v.combine(r, dst+k, val, where); err != nil {
							return err
						}
					}
					if err := v.write(r, dst+k, val, where); err != nil {
						return err
					}
				}
			case Send, SendRecv:
				src, err := v.checkRef(r, step.Src, where.src())
				if err != nil {
					return err
				}
				if step.To < 0 || step.To >= v.p || step.To == r {
					return fmt.Errorf("%s: send destination %d out of range", where, step.To)
				}
				key := pairKey{r, step.To}
				if _, dup := sends[key]; dup {
					return fmt.Errorf("sched: round %d: two sends from %d to %d (per-round tags would be ambiguous)", ri, r, step.To)
				}
				payload := make([]int64, step.Src.N)
				for k := 0; k < step.Src.N; k++ {
					if v.recvStamp[r][src+k] == stamp {
						return fmt.Errorf("%s: sends slot %d received in the same round", where, src+k)
					}
					val := v.state[r][src+k]
					if val == undef {
						return fmt.Errorf("%s: sends undefined data at slot %d", where, src+k)
					}
					payload[k] = val
					v.readStamp[r][src+k] = stamp
				}
				sends[key] = payload
			case Recv:
				// Posted in pass 1.
			default:
				return fmt.Errorf("%s: unknown step kind %q", where, step.Kind)
			}
		}
	}

	// Pairing: the send and receive multisets must match exactly.
	for key, payload := range sends {
		rv, ok := recvs[key]
		if !ok {
			return fmt.Errorf("sched: round %d: unmatched send %d->%d (no receive posted — the round discipline would deadlock)", ri, key.from, key.to)
		}
		if rv.n != len(payload) {
			return fmt.Errorf("sched: round %d: message %d->%d sends %d blocks but the receive expects %d", ri, key.from, key.to, len(payload), rv.n)
		}
	}
	for key := range recvs {
		if _, ok := sends[key]; !ok {
			return fmt.Errorf("sched: round %d: unmatched receive at %d from %d (no send posted — the round discipline would deadlock)", ri, key.to, key.from)
		}
	}

	// Deliver: receive payloads land at the round's wait.
	for key, rv := range recvs {
		payload := sends[key]
		where := messageAt(ri, key.from, key.to)
		for k, val := range payload {
			if err := v.write(rv.rank, rv.slot+k, val, where); err != nil {
				return err
			}
		}
	}
	return nil
}

// combine forms the partial a Reduce step leaves at the destination slot:
// both operands must be partials of the same result block with disjoint
// contributor sets (a shared contributor would enter the sum twice).
func (v *verifier) combine(rank, dstSlot int, srcVal int64, where stepLoc) (int64, error) {
	dstVal := v.state[rank][dstSlot]
	if dstVal == undef {
		return 0, fmt.Errorf("%s: reduces into undefined data at slot %d", where, dstSlot)
	}
	sp, dp := v.parts[srcVal], v.parts[dstVal]
	if sp.blk != dp.blk {
		return 0, fmt.Errorf("%s: reduces a partial of block %d into a partial of block %d", where, sp.blk, dp.blk)
	}
	mask := make([]uint64, v.maskWords)
	for w := range mask {
		if sp.mask[w]&dp.mask[w] != 0 {
			shared := bits.TrailingZeros64(sp.mask[w] & dp.mask[w])
			return 0, fmt.Errorf("%s: contribution of rank %d to block %d would enter twice (double contribution)", where, w*64+shared, sp.blk)
		}
		mask[w] = sp.mask[w] | dp.mask[w]
	}
	v.parts = append(v.parts, partial{blk: sp.blk, mask: mask})
	return int64(len(v.parts) - 1), nil
}

// write updates a slot, enforcing the exactly-once discipline and the
// final-content contract on the recv space.
func (v *verifier) write(rank, slot int, val int64, where stepLoc) error {
	if rb := v.recvSlotBase(rank); slot >= rb && slot < rb+v.recvSize[rank] {
		d := slot - rb
		v.recvWritten[rank][d]++
		if v.recvWritten[rank][d] > 1 {
			return fmt.Errorf("%s: recv block %d of rank %d written more than once (block delivered twice)", where, d, rank)
		}
		if v.reduction {
			pt := v.parts[val]
			want := rank // reduce-scatter: the single recv block is this rank's result
			if v.coll == CollAllreduce {
				want = d
			}
			if pt.blk != want {
				return fmt.Errorf("%s: recv block %d of rank %d receives the result of block %d, want %d", where, d, rank, pt.blk, want)
			}
			for w, m := range pt.mask {
				ranksHere := v.p - w*64
				full := ^uint64(0)
				if ranksHere < 64 {
					full = uint64(1)<<ranksHere - 1
				}
				if m != full {
					missing := bits.TrailingZeros64(^m & full)
					return fmt.Errorf("%s: recv block %d of rank %d misses the contribution of rank %d (incomplete reduction)", where, d, rank, w*64+missing)
				}
			}
		} else if want := v.expectGid(rank, d); val != want {
			if v.coll == CollAlltoall {
				return fmt.Errorf("%s: recv block %d of rank %d receives block (%d->%d), want (%d->%d)",
					where, d, rank, val/int64(v.p), val%int64(v.p), d, rank)
			}
			return fmt.Errorf("%s: recv block %d of rank %d receives block id %d, want %d", where, d, rank, val, want)
		}
	}
	v.state[rank][slot] = val
	return nil
}

// expectGid is the block id a routing collective must deliver into recv
// slot off of rank r.
func (v *verifier) expectGid(rank, off int) int64 {
	if v.coll == CollAlltoallv {
		return v.expect[rank][off]
	}
	return int64(off)*int64(v.p) + int64(rank)
}

// final checks the post-state: every recv slot written exactly once (the
// correct content was already enforced at write time).
func (v *verifier) final() error {
	for r := 0; r < v.p; r++ {
		for d := 0; d < v.recvSize[r]; d++ {
			if v.recvWritten[r][d] != 1 {
				switch {
				case v.reduction:
					return fmt.Errorf("sched: result block %d of rank %d never produced", d, r)
				case v.coll == CollAlltoall:
					return fmt.Errorf("sched: block (%d->%d) never delivered", d, r)
				default:
					return fmt.Errorf("sched: recv block %d of rank %d never delivered", d, r)
				}
			}
		}
	}
	return nil
}
