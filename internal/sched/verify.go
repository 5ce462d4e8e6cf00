package sched

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"slices"

	"alltoallx/internal/topo"
)

// Verification. Every symbolic check lives once, in the rank walker
// below, which executes one rank's program round by round. Two drivers
// run it:
//
//   - the world driver (Prove, VerifyWorld, VerifyWorldSliced) walks
//     every rank of a world in step, round by round. It pulls each rank's
//     round from that rank's source, a generator writing it into a reused
//     buffer or a program's step list, so a proof holds one round of
//     the world at a time and never its programs. It pairs each round's
//     sends and receives exactly, per receiver, and delivers the sender's
//     symbolic payload, so it proves content at every world size;
//   - the lone driver (VerifyRank, verifyslice.go) walks one program on
//     its own, a receive delivering "unknown": the local check of an
//     artifact that travels alone.
//
// The walker checks, per rank and round:
//
//   - structure: known step kinds, peers in range, buffer references in
//     range, no writes into the user send buffer, at most one message
//     per ordered rank pair per round (so per-round tags are
//     unambiguous);
//   - data races the executor's ordering cannot tolerate: no copy or
//     send reads data received in the same round (received data lands
//     at the round's wait), no two same-round writes to one slot, no
//     copy overwriting a buffer an earlier send of the round is
//     transmitting;
//   - dataflow, by symbolic execution: a slot holds which sender's block
//     it has, and every recv slot must be written exactly once and hold
//     exactly its block.
//
// The walker's state follows the steps: it holds a cell only for the
// slots its program's steps have written or stamped so far, never sized
// by declared scratch or rank counts, and never more than a budget
// computed from the header before it walks (cellBudget). The proof is
// per schedule, not per run: a verified schedule is correct for every
// block size on every substrate.

// VerifyWorld statically proves a world — every rank's program,
// indexed by rank — implements all-to-all semantics before it ever
// runs: the world driver walks the programs' rounds in step, as Prove
// walks a generator's.
func VerifyWorld(world []*RankProgram) error {
	if err := checkRanks(len(world)); err != nil {
		return err
	}
	srcs := make([]*source, len(world))
	for r, rp := range world {
		srcs[r] = programSource(rp)
	}
	return walkWorld(srcs, nil)
}

// Prove compiles the named world and proves it with the world driver,
// walking every rank's rounds as its generator writes them, and returns
// the Digest of every rank's program, indexed by rank — the programs
// GenerateRank compiles. A generator's refusal of the world is returned
// as is, a verifier rejection as a failed static verification.
func Prove(name string, p int, m *topo.Mapping) ([][sha256.Size]byte, error) {
	gen, err := generator(name, p)
	if err != nil {
		return nil, err
	}
	srcs := make([]*source, p)
	digs := make([]*digester, p)
	for r := range srcs {
		if srcs[r], err = gen(p, r, m); err != nil {
			return nil, err
		}
		digs[r] = newDigester(&srcs[r].hdr, srcs[r].rounds())
	}
	if err := walkWorld(srcs, func(r int, steps []Step) { digs[r].round(steps) }); err != nil {
		return nil, fmt.Errorf("failed static verification: %w", err)
	}
	digests := make([][sha256.Size]byte, p)
	for r, d := range digs {
		digests[r] = d.sum()
	}
	return digests, nil
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
// seed(s, off): the block s sends to rank off.
const (
	undef   int64 = -1 // never written
	unknown int64 = -2 // received by the lone walker: defined, identity unknown

	offBits = 46
	offMask = 1<<offBits - 1
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
// the rank at its other end and its buffer operand.
type message struct {
	peer int
	ref  Ref
}

// cellBudget is the most cells a walker of the program with header hdr
// may hold: p^2, plus 8 per buffer space (a page each may be part
// used). Every bundled generator's walker stays within it: at 1-64 flat
// ranks, bruck at 3 ranks comes closest, at 0.70 of it, and sampled
// worlds of 65-256 ranks stay under 0.33.
func cellBudget(hdr *RankProgram) int {
	return hdr.Ranks*hdr.Ranks + pageSize*(SpaceScratch+len(hdr.Scratch))
}

// rankWalker symbolically executes one rank's program, round by round.
type rankWalker struct {
	v                  *verifier
	hdr                *RankProgram // the program's header; its rounds are not read
	rank               int
	budget             int // cellBudget(hdr)
	sendSize, recvSize int
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

// reset points the walker at the program with header hdr, reusing its
// buffers.
func (w *rankWalker) reset(v *verifier, hdr *RankProgram) {
	clear(w.table)
	*w = rankWalker{v: v, hdr: hdr, rank: hdr.Rank, budget: cellBudget(hdr),
		sendSize: hdr.SpaceSize(SpaceSend), recvSize: hdr.SpaceSize(SpaceRecv),
		table: w.table, chunks: w.chunks}
}

// size is the size of buffer space buf, or -1 for a space the program
// does not have.
func (w *rankWalker) size(buf int) int {
	switch i := buf - SpaceScratch; {
	case buf == SpaceSend:
		return w.sendSize
	case buf == SpaceRecv:
		return w.recvSize
	case i >= 0 && i < len(w.hdr.Scratch):
		return w.hdr.Scratch[i]
	}
	return -1
}

// inSpace reports whether ref is a nonempty range inside one of the
// program's spaces, within the walker's limits.
func (w *rankWalker) inSpace(ref Ref) bool {
	size := w.size(int(ref.Buf))
	return size >= 0 && size < maxSpace && ref.Buf < maxBuf && ref.N > 0 && ref.Off >= 0 && int(ref.N) <= size-int(ref.Off)
}

// refError names why inSpace refuses ref.
func (w *rankWalker) refError(ref Ref, where stepLoc) error {
	switch size := w.size(int(ref.Buf)); {
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
// cell of a recv or scratch slot instead, and returns nil only if that
// would take the walker past its budget.
func (w *rankWalker) slot(ref Ref, k int, alloc bool) *cell {
	if ref.Buf == SpaceSend {
		return nil
	}
	key := slotKey(int(ref.Buf), int(ref.Off)+k)
	rc := &w.recent[int(ref.Buf)%len(w.recent)]
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
// creates the page instead, unless the page would take the walker past
// its budget.
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
			if !alloc || (w.pages+1)*pageSize > w.budget {
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

// overBudget names the slot whose cell would take the walker past its
// budget.
func (w *rankWalker) overBudget(ref Ref, k int, where stepLoc) error {
	return fmt.Errorf("%s: slot %d of space %d would take the walker past its budget of %d cells (ranks squared, plus %d per buffer space)",
		where, int(ref.Off)+k, ref.Buf, w.budget, pageSize)
}

// value reads slot k of ref, given its cell from slot.
func (w *rankWalker) value(ref Ref, c *cell, k int) int64 {
	switch {
	case ref.Buf == SpaceSend:
		return seed(w.rank, int(ref.Off)+k)
	case c == nil:
		return undef
	}
	return c.val
}

// round walks steps, round ri of the program: it posts the round's
// receives, walks copies and sends in step order, and leaves
// the round's messages in the verifier for its driver to pair and
// deliver.
func (w *rankWalker) round(ri int, steps []Step) error {
	v, r := w.v, w.rank
	stamp := int32(ri + 1)
	v.visit++
	v.sends, v.recvs = v.sends[:0], v.recvs[:0]

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
		from := int(step.From)
		if from < 0 || from >= v.p || from == r {
			return fmt.Errorf("sched: round %d rank %d step %d: receive source %d out of range", ri, r, si, from)
		}
		if v.fromAt[from] == v.visit {
			return fmt.Errorf("sched: round %d: two receives from %d at %d (per-round tags would be ambiguous)", ri, from, r)
		}
		v.fromAt[from] = v.visit
		for k := range int(step.Dst.N) {
			c := w.slot(step.Dst, k, true)
			if c == nil {
				return w.overBudget(step.Dst, k, where)
			}
			if c.recvAt == stamp {
				return fmt.Errorf("sched: round %d rank %d: two receives write slot %d in one round", ri, r, int(step.Dst.Off)+k)
			}
			c.recvAt = stamp
		}
		v.recvs = append(v.recvs, message{peer: from, ref: step.Dst})
	}

	// Pass 2: copies and sends in step order.
	for si := range steps {
		step := &steps[si]
		where := stepAt(ri, r, si, step.Kind)
		switch step.Kind {
		case Copy:
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
			// disagree on them.
			if step.Src.Buf == step.Dst.Buf &&
				int(step.Src.Off) < int(step.Dst.Off)+int(step.Dst.N) && int(step.Dst.Off) < int(step.Src.Off)+int(step.Src.N) {
				return fmt.Errorf("%s: src %v and dst %v overlap", where, step.Src, step.Dst)
			}
			for k := range int(step.Src.N) {
				sc, dc := w.slot(step.Src, k, false), w.slot(step.Dst, k, false)
				if sc != nil && sc.recvAt == stamp {
					return fmt.Errorf("%s: reads slot %d received in the same round (received data is only available in later rounds)", where, int(step.Src.Off)+k)
				}
				if dc != nil && dc.recvAt == stamp {
					return fmt.Errorf("%s: writes slot %d a same-round receive also writes", where, int(step.Dst.Off)+k)
				}
				if dc != nil && dc.readAt == stamp {
					return fmt.Errorf("%s: overwrites slot %d an earlier send of the round is transmitting", where, int(step.Dst.Off)+k)
				}
				val := w.value(step.Src, sc, k)
				if val == undef {
					return fmt.Errorf("%s: reads undefined data at slot %d", where, int(step.Src.Off)+k)
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
			to := int(step.To)
			if to < 0 || to >= v.p || to == r {
				return fmt.Errorf("%s: send destination %d out of range", where, to)
			}
			if v.toAt[to] == v.visit {
				return fmt.Errorf("sched: round %d: two sends from %d to %d (per-round tags would be ambiguous)", ri, r, to)
			}
			v.toAt[to] = v.visit
			for k := range int(step.Src.N) {
				sc := w.slot(step.Src, k, false)
				if sc != nil && sc.recvAt == stamp {
					return fmt.Errorf("%s: sends slot %d received in the same round", where, int(step.Src.Off)+k)
				}
				if w.value(step.Src, sc, k) == undef {
					return fmt.Errorf("%s: sends undefined data at slot %d", where, int(step.Src.Off)+k)
				}
				if sc != nil {
					sc.readAt = stamp
				}
			}
			v.sends = append(v.sends, message{peer: to, ref: step.Src})
		case Recv:
			// Posted in pass 1.
		default:
			return fmt.Errorf("%s: unknown step kind %q", where, step.Kind)
		}
	}
	return nil
}

// deliver lands the data a receive into dst brings: the payload of
// sender's src (world driver) or unknown values (lone driver, sender
// nil).
func (w *rankWalker) deliver(dst Ref, sender *rankWalker, src Ref, where stepLoc) error {
	for k := range int(dst.N) {
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
		if c = w.slot(ref, k, true); c == nil {
			return w.overBudget(ref, k, where)
		}
	}
	if ref.Buf == SpaceRecv {
		x := int(ref.Off) + k
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
// value is the block its sender addressed to the rank of its send
// offset; slot x must hold the block rank x addressed here.
func (w *rankWalker) checkResult(x int, val int64, where stepLoc) error {
	if s, d := int(val>>offBits), int(val&offMask); s != x || d != w.rank {
		return fmt.Errorf("%s: recv block %d of rank %d receives block (%d->%d), want block (%d->%d)", where, x, w.rank, s, d, x, w.rank)
	}
	return nil
}

// final checks that every recv slot was written exactly once (content
// was checked at write time).
func (w *rankWalker) final() error {
	x := 0
	for ref := (Ref{Buf: SpaceRecv, N: int32(w.recvSize)}); x < w.recvSize; x++ {
		if c := w.slot(ref, x, false); c == nil || c.val == undef {
			break
		}
	}
	if x == w.recvSize {
		return nil
	}
	return fmt.Errorf("sched: block (%d->%d) never delivered", x, w.rank)
}

// walkWorld is the world driver. srcs holds one source per rank,
// indexed by rank. Round by round it writes every rank's round into one
// reused buffer, walks it, hands it to fold (when not nil) and pairs the
// rank's messages, then checks that every rank's recv space is complete.
func walkWorld(srcs []*source, fold func(r int, steps []Step)) error {
	p := len(srcs)
	v := newVerifier(p)
	for r, src := range srcs {
		if err := v.admit(&src.hdr, src.rounds(), r); err != nil {
			return err
		}
	}
	v.ws = make([]rankWalker, p)
	for r, src := range srcs {
		v.ws[r].reset(v, &src.hdr)
	}
	v.pend, v.next = make([][]message, p), make([]int, p)
	var buf []Step
	for ri := 0; ri < v.rounds; ri++ {
		for r, src := range srcs {
			buf = src.round(ri, buf)
			if err := v.ws[r].round(ri, buf); err != nil {
				return err
			}
			if fold != nil {
				fold(r, buf)
			}
			if err := v.pair(ri, r); err != nil {
				return err
			}
		}
		for d, recvs := range v.pend {
			if j := v.next[d]; j < len(recvs) {
				return unmatchedRecv(ri, d, recvs[j].peer)
			}
			v.pend[d], v.next[d] = recvs[:0], 0
		}
	}
	for r := range v.ws {
		if err := v.ws[r].final(); err != nil {
			return err
		}
	}
	return nil
}

// pair matches rank r's messages of round ri, which its walker has just
// posted, and delivers every matched message. Ranks are walked in order,
// so one half of each message waits for the walk of the other's rank:
// until rank d is walked, pend[d] holds the sends into d from lower
// ranks, by sender; from then on it holds d's receives from higher
// ranks, by sender, and next[d] counts those already matched.
func (v *verifier) pair(ri, r int) error {
	slices.SortFunc(v.recvs, func(a, b message) int { return cmp.Compare(a.peer, b.peer) })
	in, i := v.pend[r], 0
	later := in[:0] // reuses in's storage: it grows only once in is used up
	for _, rc := range v.recvs {
		switch {
		case i < len(in) && (rc.peer > r || in[i].peer < rc.peer):
			return unmatchedSend(ri, in[i].peer, r)
		case rc.peer > r:
			later = append(later, rc)
		case i == len(in) || in[i].peer > rc.peer:
			return unmatchedRecv(ri, r, rc.peer)
		default:
			if err := v.deliver(ri, rc.peer, r, in[i].ref, rc.ref); err != nil {
				return err
			}
			i++
		}
	}
	if i < len(in) {
		return unmatchedSend(ri, in[i].peer, r)
	}
	v.pend[r] = later
	for _, sd := range v.sends {
		d := sd.peer
		if d > r {
			v.pend[d] = append(v.pend[d], message{peer: r, ref: sd.ref})
			continue
		}
		rest := v.pend[d][v.next[d]:]
		switch {
		case len(rest) == 0 || rest[0].peer > r:
			return unmatchedSend(ri, r, d)
		case rest[0].peer < r:
			return unmatchedRecv(ri, d, rest[0].peer)
		}
		if err := v.deliver(ri, r, d, sd.ref, rest[0].ref); err != nil {
			return err
		}
		v.next[d]++
	}
	return nil
}

// deliver lands round ri's message from -> to, whose send reads src and
// whose receive writes dst.
func (v *verifier) deliver(ri, from, to int, src, dst Ref) error {
	if src.N != dst.N {
		return fmt.Errorf("sched: round %d: message %d->%d sends %d blocks but the receive expects %d", ri, from, to, src.N, dst.N)
	}
	return v.ws[to].deliver(dst, &v.ws[from], src, messageAt(ri, from, to))
}

func unmatchedSend(ri, from, to int) error {
	return fmt.Errorf("sched: round %d: unmatched send %d->%d (no receive posted — the round discipline would deadlock)", ri, from, to)
}

func unmatchedRecv(ri, at, from int) error {
	return fmt.Errorf("sched: round %d: unmatched receive at %d from %d (no send posted — the round discipline would deadlock)", ri, at, from)
}
