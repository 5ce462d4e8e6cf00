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
// matched and which block a receive brings. Those are the world
// driver's (Prove, VerifyWorld).

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
// peer-dedup stamps, the current rank's messages and the world driver's
// pending message halves.
type verifier struct {
	p       int
	ws      []rankWalker // the world driver's walkers, by rank
	name    string
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
}

func newVerifier(p int) *verifier {
	return &verifier{p: p, fromAt: make([]int, p), toAt: make([]int, p)}
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
	if coll := hdr.Collective(); coll != CollAlltoall {
		return fmt.Errorf("sched: unknown collective %q", coll)
	}
	if v.rounds == 0 { // the first program: every later one must repeat its header
		v.name, v.rounds, v.scratch = hdr.Name, rounds, hdr.Scratch
		return nil
	}
	if hdr.Name != v.name {
		return fmt.Errorf("sched: rank %d program is %q, the world's is %q", r, hdr.Name, v.name)
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
