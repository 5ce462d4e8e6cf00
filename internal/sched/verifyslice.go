package sched

import (
	"errors"
	"fmt"

	"alltoallx/internal/topo"
)

// The lone driver of the rank walker (verify.go), and the admission of
// programs into a world. VerifyRank walks one program on its own, a
// receive delivering "unknown": it runs every check of the rank walker,
// with content checked wherever a value is known (this rank's own
// blocks), and — because a rank's recv buffer is written only by its
// own steps — the exactly-once delivery accounting over every recv
// slot. What it cannot see is the other ranks: whether every message is
// matched, which block a receive brings, whether a wire-carried partial
// is complete. Those are the world driver's (Prove, Verify).

// VerifyRank runs every local check on one rank's program: the check of
// a lone artifact, such as a fetched or sliced rank program. The world
// the program belongs to is proved by Prove.
func VerifyRank(rp *RankProgram) error {
	if rp == nil {
		return errors.New("sched: nil rank program")
	}
	if err := checkRanks(rp.Ranks); err != nil {
		return err
	}
	v := newVerifier(rp.Ranks)
	if err := v.admit(rp, len(rp.Rounds), rp.Rank); err != nil {
		return err
	}
	var w rankWalker
	w.reset(v, rp)
	for ri, steps := range rp.Rounds {
		if err := w.round(ri, steps); err != nil {
			return err
		}
		for _, m := range v.recvs {
			if err := w.deliver(m.ref, nil, Ref{}, deliveryAt(ri, rp.Rank)); err != nil {
				return err
			}
		}
	}
	return w.final()
}

// VerifyWorldSliced proves the named world without returning its
// digests: Prove, for callers that only need the verdict.
func VerifyWorldSliced(name string, p int, m *topo.Mapping) error {
	_, err := Prove(name, p, m)
	return err
}

// verifier is the state the drivers share across one world's rank
// walkers: the header every program must repeat, the per-visit
// peer-dedup stamps, the current rank's messages, the world driver's
// pending message halves and the reduction contributor-set table.
type verifier struct {
	p       int
	world   bool // the world driver: every walker of the world, in ws
	ws      []rankWalker
	name    string
	coll    Coll
	op      string
	rounds  int
	scratch []int
	// fromAt/toAt hold the visit (one rank's round) that last received
	// from / sent to each peer, shared by every walker.
	fromAt, toAt []int
	visit        int
	// sends and recvs are the messages the last walked rank posted;
	// pend and next hold the halves waiting for their other end (pair).
	sends, recvs []message
	pend         [][]message
	next         []int
	// The set table: contributor set id is the bitset
	// sets[id*words:(id+1)*words] over the world's ranks, held by
	// setRefs[id] cells. setHead indexes the sets by hashWords, chaining
	// ids of one hash through setNext (-1 ends a chain); setFree lists
	// the ids no cell holds; setBuf is combine's scratch. union memoizes
	// combine's last union: the setKeys of its operands and the id of
	// their union. full is the id of the all-ranks set once a result was
	// checked complete. Both are -1 when unset.
	sets    []uint64
	setRefs []int
	setHead map[uint64]int
	setNext []int
	setFree []int
	setBuf  []uint64
	union   struct {
		a, b int64
		id   int
	}
	full  int
	words int
}

func newVerifier(p int) *verifier {
	v := &verifier{p: p, fromAt: make([]int, p), toAt: make([]int, p), setHead: make(map[uint64]int), full: -1, words: (p + 63) / 64}
	v.union.id = -1
	return v
}

// checkSliceHeader validates one program's collective-describing fields.
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

// admit checks the header of the program of rank r, which has the given
// round count, against the world's.
func (v *verifier) admit(hdr *RankProgram, rounds, r int) error {
	if hdr.Ranks != v.p {
		return fmt.Errorf("sched: rank program compiled for %d ranks, the world has %d", hdr.Ranks, v.p)
	}
	if hdr.Rank < 0 || hdr.Rank >= v.p {
		return fmt.Errorf("sched: rank program rank %d out of range 0..%d", hdr.Rank, v.p-1)
	}
	if hdr.Rank != r {
		return fmt.Errorf("sched: rank program rank %d given as rank %d", hdr.Rank, r)
	}
	if rounds == 0 {
		return fmt.Errorf("sched: rank %d program has no rounds (even the trivial schedule needs the self-block copy)", r)
	}
	for i, sz := range hdr.Scratch {
		if sz <= 0 {
			return fmt.Errorf("sched: scratch space %d has non-positive size %d", i, sz)
		}
	}
	if err := checkSliceHeader(hdr); err != nil {
		return err
	}
	if v.rounds == 0 { // the first program: every later one must repeat its header
		v.name, v.coll, v.op, v.rounds, v.scratch = hdr.Name, hdr.Collective(), hdr.Op, rounds, hdr.Scratch
		return nil
	}
	if hdr.Name != v.name {
		return fmt.Errorf("sched: rank %d program is %q, the world's is %q", r, hdr.Name, v.name)
	}
	if hdr.Collective() != v.coll {
		return fmt.Errorf("sched: rank %d program is a %s, the world's is a %s", r, hdr.Collective(), v.coll)
	}
	if hdr.Op != v.op {
		return fmt.Errorf("sched: rank %d program declares operator %q, the world's is %q", r, hdr.Op, v.op)
	}
	if rounds != v.rounds {
		return fmt.Errorf("sched: rank %d program has %d rounds, the world's has %d", r, rounds, v.rounds)
	}
	if len(hdr.Scratch) != len(v.scratch) {
		return fmt.Errorf("sched: rank %d program declares %d scratch spaces, the world's has %d", r, len(hdr.Scratch), len(v.scratch))
	}
	for i, sz := range hdr.Scratch {
		if sz != v.scratch[i] {
			return fmt.Errorf("sched: rank %d scratch space %d has size %d, the world's has %d", r, i, sz, v.scratch[i])
		}
	}
	return nil
}

// declarations checks that the world's alltoallv count declarations
// describe one matrix: rank s's VSend entry for d is rank d's VRecv
// entry for s.
func (v *verifier) declarations(srcs []*source) error {
	if v.coll != CollAlltoallv {
		return nil
	}
	for s, src := range srcs {
		for d, n := range src.hdr.VSend {
			if m := srcs[d].hdr.VRecv[s]; m != n {
				return fmt.Errorf("sched: alltoallv count declarations disagree: rank %d declares %d blocks to rank %d, which declares %d from it", s, n, d, m)
			}
		}
	}
	return nil
}
