package sched

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"alltoallx/internal/topo"
)

// The streamed driver of the rank walker (verify.go): it proves what can
// be proved from one rank slice at a time, in O(p) persistent memory
// plus one slice's walker state:
//
//   - every check of the rank walker, per slice, with a receive
//     delivering "unknown": content is checked wherever a value is known
//     (this rank's own blocks), and — because a rank's recv buffer is
//     written only by its own steps — the exactly-once delivery
//     accounting covers every recv slot;
//   - cross-rank round pairing, incrementally: per round, the send and
//     receive (from, to, length) multisets must agree. Each slice folds
//     its messages into per-round count and commutative-hash
//     accumulators; Finish compares them. Combined with the walker's
//     duplicate-peer checks this proves one message per ordered pair per
//     round and deadlock-freedom under the round discipline, with
//     multiset equality holding up to a 64-bit hash collision. For
//     alltoallv the same construction proves the per-pair count
//     declarations consistent: every slice folds its VSend row and VRecv
//     column into (src, dst, count) multiset fingerprints that must agree
//     at Finish.
//
// What streaming cannot prove is that a multi-hop block arrives with the
// right *content*, or that a wire-carried partial is complete (both need
// cross-rank dataflow). So the proof policy runs the world driver
// wherever it is affordable: at or below FullProofRanks, ProveRanks
// proves the content of the very programs the ranks run. Above the
// ceiling only the streamed pass runs; the content argument there rests
// on property tests that pin GenerateRank byte-identical to
// Slice(Generate) at randomized shapes, whose schedules the world driver
// proves.

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
	return NewStreamVerifier(rp.Ranks).Add(rp)
}

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

// verifier is the state both drivers share across one world's rank
// walkers: the header every program must repeat, the alltoallv count
// declaration fingerprints, the per-visit peer-dedup stamps, the current
// round's messages and the reduction partials table.
type verifier struct {
	p       int
	world   bool // the world driver: every walker of the world, in ws
	ws      []rankWalker
	name    string
	coll    Coll
	op      string
	rounds  int
	scratch []int
	seen    []bool
	nseen   int
	// Alltoallv count-declaration fingerprints: every program's VSend
	// row and VRecv column must describe the same matrix.
	vSendHash, vRecvHash     uint64
	vSendBlocks, vRecvBlocks int
	// fromAt/toAt hold the visit (one rank's round) that last received
	// from / sent to each peer, shared by every walker.
	fromAt, toAt []int
	visit        int
	sends, recvs []message
	keys         []uint64 // a walker's slot-key scratch
	// The partials table: entry t is a partial of block partBlk[t] with
	// contributor bitset partMask[t*words:(t+1)*words].
	partBlk  []int
	partMask []uint64
	words    int
}

func newVerifier(p int) *verifier {
	return &verifier{p: p, seen: make([]bool, p), fromAt: make([]int, p), toAt: make([]int, p), words: (p + 63) / 64}
}

// checkSliceHeader validates one slice's collective-describing fields.
func checkSliceHeader(rp *RankProgram) error {
	coll := rp.Collective()
	if err := checkColl(coll, rp.Op, rp.VSend != nil || rp.VRecv != nil); err != nil {
		return err
	}
	if coll != CollAlltoallv {
		return nil
	}
	if len(rp.VSend) != rp.Ranks || len(rp.VRecv) != rp.Ranks {
		return fmt.Errorf("sched: alltoallv rank program must declare %d-entry VSend and VRecv counts (have %d and %d)",
			rp.Ranks, len(rp.VSend), len(rp.VRecv))
	}
	for i := range rp.Ranks {
		for _, c := range [2]struct{ n, s, d int }{{rp.VSend[i], rp.Rank, i}, {rp.VRecv[i], i, rp.Rank}} {
			if c.n < 0 {
				return fmt.Errorf("sched: negative count %d for pair %d->%d", c.n, c.s, c.d)
			}
			if c.n >= maxSpace {
				return fmt.Errorf("sched: count %d for pair %d->%d exceeds the verifier's %d-block space limit", c.n, c.s, c.d, maxSpace)
			}
		}
	}
	if rp.VSend[rp.Rank] != rp.VRecv[rp.Rank] {
		return fmt.Errorf("sched: rank %d declares self count %d in VSend but %d in VRecv",
			rp.Rank, rp.VSend[rp.Rank], rp.VRecv[rp.Rank])
	}
	return nil
}

// admit checks one program's header against the world's and folds its
// count declarations into the fingerprints.
func (v *verifier) admit(rp *RankProgram) error {
	if rp == nil {
		return errors.New("sched: nil rank program")
	}
	if rp.Ranks != v.p {
		return fmt.Errorf("sched: rank program compiled for %d ranks, stream expects %d", rp.Ranks, v.p)
	}
	if rp.Rank < 0 || rp.Rank >= v.p {
		return fmt.Errorf("sched: rank program rank %d out of range 0..%d", rp.Rank, v.p-1)
	}
	if v.seen[rp.Rank] {
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
	if v.rounds == 0 { // the first program: every later one must repeat its header
		v.name, v.coll, v.op, v.rounds = rp.Name, rp.Collective(), rp.Op, len(rp.Rounds)
		v.scratch = append([]int(nil), rp.Scratch...)
	} else {
		if rp.Name != v.name {
			return fmt.Errorf("sched: rank %d program is %q, stream carries %q", rp.Rank, rp.Name, v.name)
		}
		if rp.Collective() != v.coll {
			return fmt.Errorf("sched: rank %d program is a %s, stream carries %s", rp.Rank, rp.Collective(), v.coll)
		}
		if rp.Op != v.op {
			return fmt.Errorf("sched: rank %d program declares operator %q, stream carries %q", rp.Rank, rp.Op, v.op)
		}
		if len(rp.Rounds) != v.rounds {
			return fmt.Errorf("sched: rank %d program has %d rounds, stream carries %d", rp.Rank, len(rp.Rounds), v.rounds)
		}
		if len(rp.Scratch) != len(v.scratch) {
			return fmt.Errorf("sched: rank %d program declares %d scratch spaces, stream carries %d", rp.Rank, len(rp.Scratch), len(v.scratch))
		}
		for i, sz := range rp.Scratch {
			if sz != v.scratch[i] {
				return fmt.Errorf("sched: rank %d scratch space %d has size %d, stream carries %d", rp.Rank, i, sz, v.scratch[i])
			}
		}
	}
	for i := range rp.VSend {
		v.vSendHash += msgHash(-1, rp.Rank, i, rp.VSend[i])
		v.vSendBlocks += rp.VSend[i]
		v.vRecvHash += msgHash(-1, i, rp.Rank, rp.VRecv[i])
		v.vRecvBlocks += rp.VRecv[i]
	}
	v.seen[rp.Rank] = true
	v.nseen++
	return nil
}

// declarations checks the alltoallv count declarations agree across the
// world's programs.
func (v *verifier) declarations() error {
	if v.vSendBlocks != v.vRecvBlocks {
		return fmt.Errorf("sched: alltoallv count declarations disagree: %d blocks declared sent but %d declared received", v.vSendBlocks, v.vRecvBlocks)
	}
	if v.vSendHash != v.vRecvHash {
		return errors.New("sched: alltoallv count declarations disagree across slices (some pair's VSend and VRecv entries differ)")
	}
	return nil
}

// StreamVerifier proves schedule properties incrementally over rank
// slices, in O(p + rounds) persistent memory (plus one slice's walker
// state per Add). Feed every rank's program exactly once (any order),
// then call Finish.
type StreamVerifier struct {
	v   *verifier
	w   rankWalker
	acc []roundAcc
}

// NewStreamVerifier returns a verifier expecting the slices of a p-rank
// world.
func NewStreamVerifier(p int) *StreamVerifier {
	return &StreamVerifier{v: newVerifier(p)}
}

// Add verifies one rank's slice locally and folds its cross-rank
// fingerprints into the stream state.
func (sv *StreamVerifier) Add(rp *RankProgram) error {
	v := sv.v
	if err := v.admit(rp); err != nil {
		return err
	}
	if sv.acc == nil {
		sv.acc = make([]roundAcc, v.rounds)
	}
	w := &sv.w
	w.reset(v, rp)
	for ri := range rp.Rounds {
		v.sends, v.recvs = v.sends[:0], v.recvs[:0]
		if err := w.round(ri); err != nil {
			return err
		}
		a := &sv.acc[ri]
		for _, m := range v.sends {
			a.sends++
			a.sendBlocks += m.ref.N
			a.sendHash += msgHash(ri, m.pair%v.p, m.pair/v.p, m.ref.N)
		}
		for _, m := range v.recvs {
			a.recvs++
			a.recvBlks += m.ref.N
			a.recvHash += msgHash(ri, m.pair%v.p, m.pair/v.p, m.ref.N)
			if err := w.deliver(m.ref, nil, Ref{}, deliveryAt(ri, rp.Rank)); err != nil {
				return err
			}
		}
	}
	return w.final()
}

// Finish checks the cross-rank properties once every slice has been
// added: full coverage, per-round matching send/receive multisets, and
// (alltoallv) consistent per-pair count declarations across slices.
func (sv *StreamVerifier) Finish() error {
	v := sv.v
	if v.nseen != v.p {
		for r, ok := range v.seen {
			if !ok {
				return fmt.Errorf("sched: stream verification incomplete: rank %d missing (%d/%d seen)", r, v.nseen, v.p)
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
	return v.declarations()
}

// ProveWorld streams every rank's GenerateRank slice of the named
// generator through a StreamVerifier and returns the Digest of every
// accepted slice, indexed by rank: the large-world proof. Memory stays
// O(p + one slice); time is O(total schedule size) — the same steps the
// world will execute, never the assembled schedule. A program whose
// digest equals its rank's entry is byte-identical to a slice that
// passed every check VerifyRank would repeat.
func ProveWorld(name string, p int, m *topo.Mapping) ([][sha256.Size]byte, error) {
	if err := checkRanks(p); err != nil {
		return nil, err
	}
	sv := NewStreamVerifier(p)
	digests := make([][sha256.Size]byte, p)
	for r := range digests {
		rp, err := GenerateRank(name, p, r, m)
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
