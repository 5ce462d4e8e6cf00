package core

import (
	"errors"
	"fmt"

	"alltoallx/internal/coll"
	"alltoallx/internal/comm"
	"alltoallx/internal/topo"
	"alltoallx/internal/trace"
)

// worldInfo extracts the topology facts the node-aware family needs from
// the world communicator.
type worldInfo struct {
	mapping *topo.Mapping
	p       int
	ppn     int
	nnodes  int
	myNode  int
	myLocal int
}

func getWorldInfo(c comm.Comm) (worldInfo, error) {
	m := c.Topo()
	if m == nil {
		return worldInfo{}, errors.New("core: communicator carries no topology; node-aware algorithms need the world communicator of a mapped cluster")
	}
	if m.Size() != c.Size() {
		return worldInfo{}, fmt.Errorf("core: topology size %d != communicator size %d", m.Size(), c.Size())
	}
	return worldInfo{
		mapping: m,
		p:       m.Size(),
		ppn:     m.PPN(),
		nnodes:  m.Nodes(),
		myNode:  m.NodeOf(c.Rank()),
		myLocal: m.LocalRank(c.Rank()),
	}, nil
}

// checkDivides validates a leader/group size against the node's rank
// count. option is the Options field the value came from ("PPL", "PPG",
// or "PPN" for whole-node group sizes), so construction errors name both
// the offending option and the node shape they conflict with.
func checkDivides(option string, q int, info worldInfo) error {
	if q <= 0 || q > info.ppn || info.ppn%q != 0 {
		return fmt.Errorf("core: Options.%s=%d invalid for this world (%d nodes x %d ranks/node): it must divide the %d ranks per node (valid values: %v)",
			option, q, info.nnodes, info.ppn, info.ppn, divisorsOf(info.ppn))
	}
	return nil
}

// divisorsOf returns n's divisors ascending — the valid leader/group
// sizes for an n-rank node, listed in checkDivides errors.
func divisorsOf(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// hierarchical implements Algorithm 3: gather each leader group's data to
// its leader, perform an all-to-all among all leaders, scatter back. With
// one leader per node (hier=true) this is the standard hierarchical
// algorithm; with ppn/PPL leaders per node it is the multi-leader variant.
type hierarchical struct {
	*basic
	info worldInfo

	q       int // processes per leader (group size)
	nGroups int // leader groups per node
	nLead   int // total leaders = nGroups * nnodes

	local   comm.Comm // my leader group; rank 0 is the leader
	leaders comm.Comm // all leaders (nil on non-leaders)

	inner innerExchange

	myGroup  int // group index within my node
	isLeader bool

	bufA, bufB comm.Buffer // leader staging: q*p*maxBlock each
}

func newHierarchical(c comm.Comm, maxBlock int, o Options, hier bool) (Alltoaller, error) {
	info, err := getWorldInfo(c)
	if err != nil {
		return nil, err
	}
	name, opt := "multileader", "PPL"
	q := o.PPL
	if hier {
		name, opt = "hierarchical", "PPN"
		q = info.ppn // exactly one leader per node
	}
	if err := checkDivides(opt, q, info); err != nil {
		return nil, err
	}
	h := &hierarchical{
		info: info, q: q, nGroups: info.ppn / q, nLead: (info.ppn / q) * info.nnodes,
		inner: innerExchange{kind: o.Inner},
	}
	h.basic = newBasic(name, c, maxBlock, h.run)
	h.myGroup = info.myLocal / q
	h.isLeader = info.myLocal%q == 0

	// local_comm: the q ranks of my leader group, leader first.
	h.local, err = c.Split(info.myNode*h.nGroups+h.myGroup, info.myLocal%q)
	if err != nil {
		return nil, fmt.Errorf("core: %s local split: %w", name, err)
	}
	// group_comm: all leaders, ordered by world rank, so leader
	// (node N, group g) sits at index N*nGroups+g.
	color := -1
	if h.isLeader {
		color = 0
	}
	h.leaders, err = c.Split(color, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("core: %s leader split: %w", name, err)
	}
	return h, nil
}

func (h *hierarchical) run(c comm.Comm, send, recv comm.Buffer, block int) error {
	p, q := h.info.p, h.q
	var bufA, bufB comm.Buffer
	if h.isLeader {
		bufA = ensureStage(&h.bufA, send, q*p*block)
		bufB = ensureStage(&h.bufB, send, q*p*block)
	}

	// Gather: each member ships its whole send buffer to the leader.
	timer := h.rec.Time(trace.PhaseGather)
	err := coll.Gather(h.local, 0, send.Slice(0, p*block), bufA, tagGather)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s gather: %w", h.name, err)
	}

	if h.isLeader {
		// Repack member-major [m][dstWorld] into leader-destination-major
		// [D][m][dj] blocks for the leader exchange. Leader group D holds
		// world ranks D*q .. D*q+q-1, so member m's row is nLead runs of
		// q blocks, one per destination group, that land q runs apart.
		timer = h.rec.Time(trace.PhaseRepack)
		for m := 0; m < q; m++ {
			comm.CopyBlocks(bufB, m, q, bufA, m*h.nLead, 1, h.nLead, q*block)
		}
		err = c.ChargeCopy(p*q*block, p*q)
		timer.Stop()
		if err != nil {
			return err
		}

		// All-to-all among leaders: q*q*block bytes per leader pair.
		timer = h.rec.Time(trace.PhaseInter)
		err = h.inner.run(h.leaders, bufB, bufA, q*q*block)
		timer.Stop()
		if err != nil {
			return fmt.Errorf("core: %s leader exchange: %w", h.name, err)
		}

		// Repack received [D][m][d] into member-major scatter layout
		// [d][srcWorld]. Source world rank D*q+m indexes the [D][m] pairs
		// in order, so member d's row is every q-th block from d.
		timer = h.rec.Time(trace.PhaseRepack)
		for d := 0; d < q; d++ {
			comm.CopyBlocks(bufB, d*p, 1, bufA, d, q, p, block)
		}
		err = c.ChargeCopy(p*q*block, p*q)
		timer.Stop()
		if err != nil {
			return err
		}
	}

	// Scatter: each member receives its final recv buffer from the leader.
	timer = h.rec.Time(trace.PhaseScatter)
	err = coll.Scatter(h.local, 0, bufB, recv.Slice(0, p*block), tagScatter)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s scatter: %w", h.name, err)
	}
	return nil
}
