package core

import (
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// nodeAware implements Algorithm 4. With one group per node (g = ppn,
// node-aware aggregation) every rank first exchanges with its equal-local-
// rank counterparts across nodes — aggregating all data between a node
// pair into ppn messages — then redistributes within the node. With
// several groups per node (g < ppn) it is the paper's novel locality-aware
// aggregation (Section 3.2): the intra-region redistribution happens among
// g nearby ranks instead of all ppn, trading slightly more inter-region
// messages for much cheaper local traffic.
//
// The paper's three repacks are charged but move no bytes: the only
// copies are the two exchanges' own. On a block-mapped world the first is
// the identity: the inter exchange reads the caller's send directly. The
// other two are transposes, and the inner exchanges' receive layout (see
// innerExchange.run) does them as the bytes land: the inter exchange
// receives into one staging buffer of p blocks in member-major order, and
// the intra exchange sends from it and receives into the caller's recv in
// world-rank order.
type nodeAware struct {
	*basic
	info worldInfo

	g   int // processes per group
	nG  int // groups per node
	tg  int // total groups = nG * nnodes
	myG int // my group index within the node
	myJ int // my index within the group

	local comm.Comm // my group (size g)
	group comm.Comm // my j-counterparts in every group (size tg)

	inner innerExchange
	stage comm.Buffer // p*maxBlock: the inter exchange's receive side, the intra exchange's send side
}

func newNodeAware(c comm.Comm, maxBlock int, o Options, whole bool) (Alltoaller, error) {
	info, err := getWorldInfo(c)
	if err != nil {
		return nil, err
	}
	name, opt := "locality-aware", "PPG"
	g := o.PPG
	if whole {
		name, opt = "node-aware", "PPN"
		g = info.ppn
	}
	if err := checkDivides(opt, g, info); err != nil {
		return nil, err
	}
	na := &nodeAware{
		info: info, g: g, nG: info.ppn / g, tg: (info.ppn / g) * info.nnodes,
		inner: innerExchange{kind: o.Inner},
	}
	na.basic = newBasic(name, c, maxBlock, na.run)
	na.myG = info.myLocal / g
	na.myJ = info.myLocal % g

	// local_comm: my group, ordered by position within the group.
	na.local, err = c.Split(info.myNode*na.nG+na.myG, na.myJ)
	if err != nil {
		return nil, fmt.Errorf("core: %s local split: %w", name, err)
	}
	// group_comm: the j-th member of every group, ordered by world rank,
	// so group (node N, index k) sits at position N*nG+k.
	na.group, err = c.Split(na.myJ, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("core: %s group split: %w", name, err)
	}
	return na, nil
}

func (na *nodeAware) run(c comm.Comm, send, recv comm.Buffer, block int) error {
	p, g, tg := na.info.p, na.g, na.tg
	stage := comm.Stage(&na.stage, recv, p*block)

	// The paper repacks send into group-destination order: block for group
	// t, member i at position t*g+i. Groups tile the block-mapped world in
	// rank order (group t holds world ranks t*g .. t*g+g-1), so that is
	// send's own order and the repack is the identity: it is charged, so
	// the model keeps the paper's cost, but it moves no bytes.
	timer := na.rec.Time(trace.PhaseRepack)
	err := c.ChargeCopy(p*block, p)
	timer.Stop()
	if err != nil {
		return err
	}

	// Inter-region exchange, send to stage: g*block bytes to the
	// j-counterpart of every group. For node-aware (g = ppn) this is the
	// node-pair aggregation: each rank talks to exactly one rank per node.
	// Every inner exchange only reads its send side.
	timer = na.rec.Time(trace.PhaseInter)
	err = na.inner.run(na.group, send, stage, g, block)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s inter exchange: %w", na.name, err)
	}

	// The paper's second repack transposes the received [t][i] into
	// member-major [i][t] for the local redistribution. The receive did
	// it: group t's block for member i landed at stage block i*tg+t. It
	// is charged, and moves no bytes.
	timer = na.rec.Time(trace.PhaseRepack)
	err = c.ChargeCopy(p*block, p)
	timer.Stop()
	if err != nil {
		return err
	}

	// Intra-region exchange, stage to recv: tg*block bytes per member
	// pair within the group.
	timer = na.rec.Time(trace.PhaseIntra)
	err = na.inner.run(na.local, stage, recv, tg, block)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: %s intra exchange: %w", na.name, err)
	}

	// The final repack is the inverse transpose into world-rank order:
	// the block from member i covering group t originated at world rank
	// t*g+i, and the receive landed it there. Charged, like the others.
	timer = na.rec.Time(trace.PhaseRepack)
	err = c.ChargeCopy(p*block, p)
	timer.Stop()
	return err
}
