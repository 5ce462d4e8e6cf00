package sched

import (
	"cmp"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"alltoallx/internal/topo"
)

// Verification. Every symbolic check lives once, in the rank walker
// below, which executes one rank's program round by round. Two drivers
// run it:
//
//   - the world driver (Verify, ProveRanks, and Prove at or below
//     FullProofRanks) walks every rank of a world in step, round by
//     round, pairs each round's sends and receives exactly, and delivers
//     the sender's symbolic payload, so it proves content;
//   - the streamed driver (StreamVerifier, VerifyRank, ProveWorld,
//     VerifyWorldSliced, verifyslice.go) walks one slice at a time, a
//     receive delivering "unknown", and proves cross-rank pairing from
//     per-round fingerprints in O(p + one slice) memory.
//
// The walker checks, per rank and round:
//
//   - structure: known step kinds, peers in range, buffer references in
//     range, no writes into the user send buffer, at most one message
//     per ordered rank pair per round (so per-round tags are
//     unambiguous);
//   - data races the executor's ordering cannot tolerate: no copy, send
//     or reduce reads data received in the same round (received data
//     lands at the round's wait), no two same-round writes to one slot,
//     no copy or reduce overwriting a buffer an earlier send of the
//     round is transmitting;
//   - dataflow, by symbolic execution. A routing slot (alltoall,
//     alltoallv) holds which sender's block it has; every recv slot must
//     be written exactly once and hold exactly its block. A reduction
//     slot holds a partial: which result block it is for and which ranks
//     have contributed. A Reduce step must combine partials of the same
//     block with disjoint contributor sets, Step.Op must equal the
//     schedule's label, and every recv slot must be written exactly once
//     with the right block — complete, every rank's contribution
//     entering once, wherever the contributors are known (the world
//     driver knows them all).
//
// The walker's state follows the steps: it holds a cell only for the
// slots its program's steps have written or stamped so far, never sized
// by declared scratch or rank counts. The proof is per schedule, not per
// run: a verified schedule is correct for every block size on every
// substrate (and, for reductions, every associative commutative
// operator).

// Verify statically proves a schedule implements its collective's
// semantics before it ever runs: after the header and shape checks it
// runs the world driver over every rank's Slice.
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
	if err := checkColl(s.Collective(), s.Op, s.Counts != nil); err != nil {
		return err
	}
	// The counts themselves are checked per rank, row and column, by the
	// world driver's admission of every slice.
	if s.Counts != nil && len(s.Counts) != p {
		return fmt.Errorf("sched: counts matrix has %d rows, want %d", len(s.Counts), p)
	}
	for src, row := range s.Counts {
		if len(row) != p {
			return fmt.Errorf("sched: counts row %d has %d entries, want %d", src, len(row), p)
		}
	}
	for ri, rd := range s.Rounds {
		if len(rd.Steps) != p {
			return fmt.Errorf("sched: round %d has %d step lists, want one per rank (%d)", ri, len(rd.Steps), p)
		}
	}
	rps := make([]*RankProgram, p)
	for r := range rps {
		rps[r], _ = Slice(s, r) // cannot fail: the shape is checked
	}
	return verifyWorld(rps)
}

// checkColl validates the collective, its operator label and whether it
// declares per-pair counts, for schedules and rank programs alike.
func checkColl(coll Coll, op string, counts bool) error {
	if !coll.valid() {
		return fmt.Errorf("sched: unknown collective %q", coll)
	}
	if coll.reduction() != (op != "") {
		if op == "" {
			return fmt.Errorf("sched: %s schedule must declare its operator label", coll)
		}
		return fmt.Errorf("sched: operator label %q on a non-reduction %s schedule", op, coll)
	}
	if (coll == CollAlltoallv) != counts {
		if !counts {
			return errors.New("sched: alltoallv schedule must declare its per-pair counts")
		}
		return fmt.Errorf("sched: per-pair counts on a non-alltoallv %s schedule", coll)
	}
	return nil
}

// stepLoc names the step a verifier check concerns, for its error
// message. The walker builds one for every step it checks, so it is a
// few words and is formatted only when a check fails.
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

// Slot values. A block read from rank s's send space at offset off is
// seed(s, off): for the routing collectives the block s sends from that
// offset, for the reductions the partial of result block off holding
// only s's contribution. A partial combining several contributions is
// partialBase+t, entry t of the verifier's partials table.
const (
	undef   int64 = -1 // never written
	unknown int64 = -2 // received by a streamed walker: defined, identity unknown

	offBits     = 46
	offMask     = 1<<offBits - 1
	partialBase = 1 << 62
)

// Address limits of the walker's packed slot keys and values: buffer ids
// below 2^16, spaces below 2^46 blocks.
const (
	maxBuf   = 1 << 16
	maxSpace = 1 << offBits
)

func seed(s, off int) int64 { return int64(s)<<offBits | int64(off) }

// cell is the state of one slot a walker has written or stamped.
type cell struct {
	val int64
	// recvAt and readAt are round+1 of the round in which a receive
	// writes the slot and an already-issued send reads it.
	recvAt, readAt int32
}

// A walker stores cells in pages of pageSize consecutive slots, so the
// slots of one reference share a page and a table probe, and allocates
// pages in chunks that never move.
const (
	pageBits   = 3
	pageSize   = 1 << pageBits
	chunkPages = 64
)

type page [pageSize]cell

// pageEntry is one entry of a walker's page table: a page key (0 marks a
// free entry) and the page's index.
type pageEntry struct {
	key  uint64
	page int32
}

// slotKey packs slot off of buffer space buf into one key. Send slots are
// never stored, so every stored key, and page key, is nonzero.
func slotKey(buf, off int) uint64 { return uint64(buf)<<48 | uint64(off) }

// message is one send or receive a walker posted in the current round:
// its ranks as pair = to*p + from, and its buffer operand.
type message struct {
	pair int
	ref  Ref
}

// rankWalker symbolically executes one rank's program, round by round.
type rankWalker struct {
	v                  *verifier
	rp                 *RankProgram
	rank               int
	sendSize, recvSize int
	// sendPre and recvPre are the alltoallv prefix sums of VSend and
	// VRecv: where each destination's and source's blocks start.
	sendPre, recvPre []int
	// table indexes the walker's cells by page key: open addressing over
	// the pages holding a slot written or stamped so far, so the walker's
	// state follows the steps it has run. Page i is chunks[i/chunkPages]
	// [i%chunkPages]. recent caches the last page used in each buffer
	// space, by the space's low bits (0 is no page key).
	table  []pageEntry
	chunks [][]page
	pages  int
	recent [8]struct {
		key uint64
		pg  *page
	}
}

// reset points the walker at rp, reusing its buffers.
func (w *rankWalker) reset(v *verifier, rp *RankProgram) {
	clear(w.table)
	*w = rankWalker{v: v, rp: rp, rank: rp.Rank, sendSize: rp.SpaceSize(SpaceSend), recvSize: rp.SpaceSize(SpaceRecv),
		sendPre: prefix(w.sendPre[:0], rp.VSend), recvPre: prefix(w.recvPre[:0], rp.VRecv),
		table: w.table, chunks: w.chunks}
}

// prefix appends the prefix sums of counts to dst (nil for no counts).
func prefix(dst, counts []int) []int {
	if counts == nil {
		return nil
	}
	dst = append(dst, 0)
	for i, n := range counts {
		dst = append(dst, dst[i]+n)
	}
	return dst
}

// size is the size of buffer space buf, or -1 for a space the program
// does not have.
func (w *rankWalker) size(buf int) int {
	switch i := buf - SpaceScratch; {
	case buf == SpaceSend:
		return w.sendSize
	case buf == SpaceRecv:
		return w.recvSize
	case i >= 0 && i < len(w.rp.Scratch):
		return w.rp.Scratch[i]
	}
	return -1
}

// inSpace reports whether ref is a nonempty range inside one of the
// program's spaces, within the walker's limits.
func (w *rankWalker) inSpace(ref Ref) bool {
	size := w.size(ref.Buf)
	return size >= 0 && size < maxSpace && ref.Buf < maxBuf && ref.N > 0 && ref.Off >= 0 && ref.N <= size-ref.Off
}

// refError names why inSpace refuses ref.
func (w *rankWalker) refError(ref Ref, where stepLoc) error {
	switch size := w.size(ref.Buf); {
	case size < 0:
		return fmt.Errorf("%s: unknown buffer space %d", where, ref.Buf)
	case ref.Buf >= maxBuf || size >= maxSpace:
		return fmt.Errorf("%s: space %d of %d blocks exceeds the verifier's limits (%d spaces of %d blocks)", where, ref.Buf, size, maxBuf, maxSpace)
	case ref.N <= 0:
		return fmt.Errorf("%s: non-positive length %d", where, ref.N)
	default:
		return fmt.Errorf("%s: range %d+%d out of space %d (%d blocks)", where, ref.Off, ref.N, ref.Buf, size)
	}
}

// slot returns the cell of slot k of an inSpace ref, or nil for a send
// slot or a slot never written or stamped. With alloc it creates the
// cell of a recv or scratch slot instead.
func (w *rankWalker) slot(ref Ref, k int, alloc bool) *cell {
	if ref.Buf == SpaceSend {
		return nil
	}
	key := slotKey(ref.Buf, ref.Off+k)
	rc := &w.recent[ref.Buf%len(w.recent)]
	if pk := key >> pageBits; pk != rc.key {
		pg := w.find(pk, alloc)
		if pg == nil {
			return nil
		}
		rc.key, rc.pg = pk, pg
	}
	return &rc.pg[key%pageSize]
}

// find returns page pk, or nil if the walker has none; with alloc it
// creates the page instead.
func (w *rankWalker) find(pk uint64, alloc bool) *page {
	if n := len(w.table); n > 0 {
		for i := w.home(pk); ; i = (i + 1) & (n - 1) {
			e := &w.table[i]
			if e.key == pk {
				return &w.chunks[e.page/chunkPages][e.page%chunkPages]
			}
			if e.key != 0 {
				continue
			}
			if !alloc {
				return nil
			}
			if 4*(w.pages+1) > 3*n {
				break
			}
			if w.pages/chunkPages == len(w.chunks) {
				w.chunks = append(w.chunks, make([]page, chunkPages))
			}
			*e = pageEntry{key: pk, page: int32(w.pages)}
			w.pages++
			pg := &w.chunks[e.page/chunkPages][e.page%chunkPages]
			for i := range pg {
				pg[i] = cell{val: undef}
			}
			return pg
		}
	} else if !alloc {
		return nil
	}
	// Grow the table and retry.
	old := w.table
	w.table = make([]pageEntry, max(16, 2*len(old)))
	for _, e := range old {
		if e.key != 0 {
			i := w.home(e.key)
			for w.table[i].key != 0 {
				i = (i + 1) & (len(w.table) - 1)
			}
			w.table[i] = e
		}
	}
	return w.find(pk, alloc)
}

// home is page key pk's first probe in the page table.
func (w *rankWalker) home(pk uint64) int {
	return int(pk * 0x9E3779B97F4A7C15 >> (64 - bits.TrailingZeros(uint(len(w.table)))))
}

// value reads slot k of ref, given its cell from slot.
func (w *rankWalker) value(ref Ref, c *cell, k int) int64 {
	switch {
	case ref.Buf == SpaceSend:
		return seed(w.rank, ref.Off+k)
	case c == nil:
		return undef
	}
	return c.val
}

// round walks round ri of the program: it posts the round's receives,
// walks copies, reduces and sends in step order, and appends the round's
// messages to the verifier for its driver to pair and deliver.
func (w *rankWalker) round(ri int) error {
	v, r, steps := w.v, w.rank, w.rp.Rounds[ri]
	stamp := int32(ri + 1)
	v.visit++

	// Pass 1: receive-written slots (their data lands at the round's
	// wait, so same-round reads and overlapping writes are races).
	for si := range steps {
		step := &steps[si]
		if step.Kind != Recv && step.Kind != SendRecv {
			continue
		}
		where := stepAt(ri, r, si, step.Kind).dst()
		if !w.inSpace(step.Dst) {
			return w.refError(step.Dst, where)
		}
		if step.Dst.Buf == SpaceSend {
			return fmt.Errorf("%s: schedules must not write the user send buffer", where)
		}
		if step.From < 0 || step.From >= v.p || step.From == r {
			return fmt.Errorf("sched: round %d rank %d step %d: receive source %d out of range", ri, r, si, step.From)
		}
		if v.fromAt[step.From] == v.visit {
			return fmt.Errorf("sched: round %d: two receives from %d at %d (per-round tags would be ambiguous)", ri, step.From, r)
		}
		v.fromAt[step.From] = v.visit
		for k := 0; k < step.Dst.N; k++ {
			c := w.slot(step.Dst, k, true)
			if c.recvAt == stamp {
				return fmt.Errorf("sched: round %d rank %d: two receives write slot %d in one round", ri, r, step.Dst.Off+k)
			}
			c.recvAt = stamp
		}
		v.recvs = append(v.recvs, message{pair: r*v.p + step.From, ref: step.Dst})
	}

	// Pass 2: copies, reduces and sends in step order.
	for si := range steps {
		step := &steps[si]
		where := stepAt(ri, r, si, step.Kind)
		switch step.Kind {
		case Copy, Reduce:
			if !w.inSpace(step.Src) {
				return w.refError(step.Src, where.src())
			}
			if !w.inSpace(step.Dst) {
				return w.refError(step.Dst, where.dst())
			}
			if step.Src.N != step.Dst.N {
				return fmt.Errorf("%s: length mismatch src %d, dst %d", where, step.Src.N, step.Dst.N)
			}
			if step.Dst.Buf == SpaceSend {
				return fmt.Errorf("%s: schedules must not write the user send buffer", where)
			}
			// Overlapping ranges are rejected outright: the slot-by-slot
			// model and the executor's memmove semantics (comm.CopyData)
			// disagree on them, and for Reduce overlap would combine a
			// partial into itself.
			if step.Src.Buf == step.Dst.Buf && step.Src.Off < step.Dst.Off+step.Dst.N && step.Dst.Off < step.Src.Off+step.Src.N {
				return fmt.Errorf("%s: src %v and dst %v overlap", where, step.Src, step.Dst)
			}
			if step.Kind == Reduce {
				if !v.coll.reduction() {
					return fmt.Errorf("%s: reduce step in a %s schedule", where, v.coll)
				}
				if step.Op != v.op {
					return fmt.Errorf("%s: operator %q does not match the schedule's %q", where, step.Op, v.op)
				}
			}
			for k := 0; k < step.Src.N; k++ {
				sc, dc := w.slot(step.Src, k, false), w.slot(step.Dst, k, false)
				if sc != nil && sc.recvAt == stamp {
					return fmt.Errorf("%s: reads slot %d received in the same round (received data is only available in later rounds)", where, step.Src.Off+k)
				}
				if dc != nil && dc.recvAt == stamp {
					return fmt.Errorf("%s: writes slot %d a same-round receive also writes", where, step.Dst.Off+k)
				}
				if dc != nil && dc.readAt == stamp {
					return fmt.Errorf("%s: overwrites slot %d an earlier send of the round is transmitting", where, step.Dst.Off+k)
				}
				val := w.value(step.Src, sc, k)
				if val == undef {
					return fmt.Errorf("%s: reads undefined data at slot %d", where, step.Src.Off+k)
				}
				if step.Kind == Reduce {
					dval := w.value(step.Dst, dc, k)
					if dval == undef {
						return fmt.Errorf("%s: reduces into undefined data at slot %d", where, step.Dst.Off+k)
					}
					var err error
					if val, err = v.combine(val, dval, where); err != nil {
						return err
					}
				}
				if dc != nil && step.Dst.Buf != SpaceRecv {
					dc.val = val // a scratch overwrite: no recv accounting
				} else if err := w.write(step.Dst, k, dc, val, where); err != nil {
					return err
				}
			}
		case Send, SendRecv:
			if !w.inSpace(step.Src) {
				return w.refError(step.Src, where.src())
			}
			if step.To < 0 || step.To >= v.p || step.To == r {
				return fmt.Errorf("%s: send destination %d out of range", where, step.To)
			}
			if v.toAt[step.To] == v.visit {
				return fmt.Errorf("sched: round %d: two sends from %d to %d (per-round tags would be ambiguous)", ri, r, step.To)
			}
			v.toAt[step.To] = v.visit
			for k := 0; k < step.Src.N; k++ {
				sc := w.slot(step.Src, k, false)
				if sc != nil && sc.recvAt == stamp {
					return fmt.Errorf("%s: sends slot %d received in the same round", where, step.Src.Off+k)
				}
				if w.value(step.Src, sc, k) == undef {
					return fmt.Errorf("%s: sends undefined data at slot %d", where, step.Src.Off+k)
				}
				if sc != nil {
					sc.readAt = stamp
				}
			}
			v.sends = append(v.sends, message{pair: step.To*v.p + r, ref: step.Src})
		case Recv:
			// Posted in pass 1.
		default:
			return fmt.Errorf("%s: unknown step kind %q", where, step.Kind)
		}
	}
	return nil
}

// deliver lands the data a receive into dst brings: the payload of
// sender's src (world driver) or unknown values (streamed driver, sender
// nil).
func (w *rankWalker) deliver(dst Ref, sender *rankWalker, src Ref, where stepLoc) error {
	for k := 0; k < dst.N; k++ {
		val := unknown
		if sender != nil {
			val = sender.value(src, sender.slot(src, k, false), k)
		}
		if err := w.write(dst, k, nil, val, where); err != nil {
			return err
		}
	}
	return nil
}

// write stores val in slot k of ref, whose cell c the caller may have
// found already, enforcing on the recv space the exactly-once discipline
// and the content contract wherever the value is known.
func (w *rankWalker) write(ref Ref, k int, c *cell, val int64, where stepLoc) error {
	if c == nil {
		c = w.slot(ref, k, true)
	}
	if ref.Buf == SpaceRecv {
		x := ref.Off + k
		if c.val != undef {
			return fmt.Errorf("%s: recv block %d of rank %d written more than once (block delivered twice)", where, x, w.rank)
		}
		if val != unknown {
			if err := w.checkResult(x, val, where); err != nil {
				return err
			}
		}
	}
	c.val = val
	return nil
}

// checkResult checks the known value val landing in recv slot x. A
// routing value names send slot off of rank s; only the world driver
// delivers other ranks' blocks, so only it reads another walker's counts.
func (w *rankWalker) checkResult(x int, val int64, where stepLoc) error {
	v := w.v
	if !v.coll.reduction() {
		s, sender := int(val>>offBits), w
		if s != w.rank {
			sender = &v.ws[s]
		}
		d, j := split(sender.sendPre, int(val&offMask))
		xs, xj := split(w.recvPre, x)
		if s != xs || d != w.rank || j != xj {
			return fmt.Errorf("%s: recv block %d of rank %d receives %s, want %s", where, x, w.rank, v.blockName(s, d, j), v.blockName(xs, w.rank, xj))
		}
		return nil
	}
	want := w.rank // reduce-scatter: the single recv block is this rank's result
	if v.coll == CollAllreduce {
		want = x
	}
	if blk := v.block(val); blk != want {
		return fmt.Errorf("%s: recv block %d of rank %d receives the result of block %d, want %d", where, x, w.rank, blk, want)
	}
	if !v.world {
		return nil // the streamed driver cannot know every contributor
	}
	for wi := 0; wi < v.words; wi++ {
		full := ^uint64(0)
		if n := v.p - wi*64; n < 64 {
			full = 1<<n - 1
		}
		if m := v.maskWord(val, wi); m != full {
			return fmt.Errorf("%s: recv block %d of rank %d misses the contribution of rank %d (incomplete reduction)",
				where, x, w.rank, wi*64+bits.TrailingZeros64(^m&full))
		}
	}
	return nil
}

// split locates offset off of a send or recv space packed by peer, given
// the space's alltoallv prefix sums pre (nil for one block per peer): it
// is block j of peer i's run.
func split(pre []int, off int) (i, j int) {
	if pre == nil {
		return off, 0
	}
	i = sort.Search(len(pre)-1, func(i int) bool { return pre[i+1] > off })
	return i, off - pre[i]
}

// final checks that every recv slot was written exactly once (content
// was checked at write time).
func (w *rankWalker) final() error {
	x := 0
	for ref := (Ref{Buf: SpaceRecv, N: w.recvSize}); x < w.recvSize; x++ {
		if c := w.slot(ref, x, false); c == nil || c.val == undef {
			break
		}
	}
	if x == w.recvSize {
		return nil
	}
	switch {
	case w.v.coll.reduction():
		return fmt.Errorf("sched: result block %d of rank %d never produced", x, w.rank)
	case w.v.coll == CollAlltoall:
		return fmt.Errorf("sched: block (%d->%d) never delivered", x, w.rank)
	}
	return fmt.Errorf("sched: recv block %d of rank %d never delivered", x, w.rank)
}

// blockName prints block j of the s->d message.
func (v *verifier) blockName(s, d, j int) string {
	if v.coll == CollAlltoall {
		return fmt.Sprintf("block (%d->%d)", s, d)
	}
	return fmt.Sprintf("block %d of (%d->%d)", j, s, d)
}

// block is the result block a reduction value is a partial of.
func (v *verifier) block(val int64) int {
	if val >= partialBase {
		return v.partBlk[val-partialBase]
	}
	return int(val & offMask)
}

// maskWord is word wi of a reduction value's contributor set.
func (v *verifier) maskWord(val int64, wi int) uint64 {
	if val >= partialBase {
		return v.partMask[int(val-partialBase)*v.words+wi]
	}
	if s := int(val >> offBits); s/64 == wi {
		return 1 << (s % 64)
	}
	return 0
}

// combine forms the partial a Reduce step leaves at its destination:
// both operands must be partials of the same result block with disjoint
// contributor sets (a shared contributor would enter the sum twice). An
// unknown operand leaves the known one's block and contributors.
func (v *verifier) combine(src, dst int64, where stepLoc) (int64, error) {
	switch {
	case dst == unknown:
		return src, nil
	case src == unknown:
		return dst, nil
	}
	if sb, db := v.block(src), v.block(dst); sb != db {
		return 0, fmt.Errorf("%s: reduces a partial of block %d into a partial of block %d", where, sb, db)
	}
	t := len(v.partBlk)
	for wi := 0; wi < v.words; wi++ {
		sm, dm := v.maskWord(src, wi), v.maskWord(dst, wi)
		if sm&dm != 0 {
			return 0, fmt.Errorf("%s: contribution of rank %d to block %d would enter twice (double contribution)",
				where, wi*64+bits.TrailingZeros64(sm&dm), v.block(src))
		}
		v.partMask = append(v.partMask, sm|dm)
	}
	v.partBlk = append(v.partBlk, v.block(src))
	return partialBase + int64(t), nil
}

// verifyWorld is the world driver: it walks every rank's program in
// step, round by round, pairs each round's sends and receives exactly
// and delivers the sender's symbolic payload. rps holds one program per
// rank, in any order.
func verifyWorld(rps []*RankProgram) error {
	p := len(rps)
	v := newVerifier(p)
	v.world = true
	v.ws = make([]rankWalker, p)
	for _, rp := range rps {
		if err := v.admit(rp); err != nil {
			return err
		}
	}
	for _, rp := range rps {
		v.ws[rp.Rank].reset(v, rp)
	}
	for ri := 0; ri < v.rounds; ri++ {
		v.sends, v.recvs = v.sends[:0], v.recvs[:0]
		for r := range v.ws {
			if err := v.ws[r].round(ri); err != nil {
				return err
			}
		}
		if err := v.pair(ri); err != nil {
			return err
		}
	}
	for r := range v.ws {
		if err := v.ws[r].final(); err != nil {
			return err
		}
	}
	return v.declarations()
}

// pair matches round ri's sends and receives exactly and delivers every
// message.
func (v *verifier) pair(ri int) error {
	byPair := func(a, b message) int { return cmp.Compare(a.pair, b.pair) }
	slices.SortFunc(v.sends, byPair)
	slices.SortFunc(v.recvs, byPair)
	i, j := 0, 0
	for i < len(v.sends) || j < len(v.recvs) {
		c := -1
		switch {
		case i == len(v.sends):
			c = 1
		case j < len(v.recvs):
			c = byPair(v.sends[i], v.recvs[j])
		}
		switch {
		case c < 0:
			return fmt.Errorf("sched: round %d: unmatched send %d->%d (no receive posted — the round discipline would deadlock)", ri, v.sends[i].pair%v.p, v.sends[i].pair/v.p)
		case c > 0:
			return fmt.Errorf("sched: round %d: unmatched receive at %d from %d (no send posted — the round discipline would deadlock)", ri, v.recvs[j].pair/v.p, v.recvs[j].pair%v.p)
		}
		from, to, src, dst := v.sends[i].pair%v.p, v.sends[i].pair/v.p, v.sends[i].ref, v.recvs[j].ref
		if src.N != dst.N {
			return fmt.Errorf("sched: round %d: message %d->%d sends %d blocks but the receive expects %d", ri, from, to, src.N, dst.N)
		}
		if err := v.ws[to].deliver(dst, &v.ws[from], src, messageAt(ri, from, to)); err != nil {
			return err
		}
		i, j = i+1, j+1
	}
	return nil
}

// FullProofRanks is the full-proof ceiling. Worlds of at most this many
// ranks are proved by the world driver over GenerateRank's programs;
// larger worlds are proved one slice at a time by the streamed driver.
// The world driver's state is the slots the world's steps touch, but
// ProveRanks keeps every program of the world, which the caller caches
// (ring at 128 ranks is ~100 MB of steps).
const FullProofRanks = 128

// ProveRanks compiles every rank of the named world with GenerateRank
// and proves the world. At or below FullProofRanks it runs the world
// driver on the programs and returns them, indexed by rank, so the
// content proof covers exactly what the ranks run; a generator's refusal
// is returned as is. Above the ceiling it runs VerifyWorldSliced and
// returns no programs.
func ProveRanks(name string, p int, m *topo.Mapping) ([]*RankProgram, error) {
	if err := checkRanks(p); err != nil {
		return nil, err
	}
	if p > FullProofRanks {
		if err := VerifyWorldSliced(name, p, m); err != nil {
			return nil, fmt.Errorf("failed streamed verification: %w", err)
		}
		return nil, nil
	}
	rps := make([]*RankProgram, p)
	for r := range rps {
		rp, err := GenerateRank(name, p, r, m)
		if err != nil {
			return nil, err
		}
		rps[r] = rp
	}
	if err := verifyWorld(rps); err != nil {
		return nil, fmt.Errorf("failed static verification: %w", err)
	}
	return rps, nil
}

// Prove is the registry's world proof: the Digest of every rank's proved
// program, indexed by rank. At or below FullProofRanks it digests the
// programs ProveRanks proved; above it, it is ProveWorld.
func Prove(name string, p int, m *topo.Mapping) ([][sha256.Size]byte, error) {
	if p > FullProofRanks {
		digests, err := ProveWorld(name, p, m)
		if err != nil {
			return nil, fmt.Errorf("failed streamed verification: %w", err)
		}
		return digests, nil
	}
	rps, err := ProveRanks(name, p, m)
	if err != nil {
		return nil, err
	}
	digests := make([][sha256.Size]byte, p)
	for r, rp := range rps {
		digests[r] = rp.Digest()
	}
	return digests, nil
}
