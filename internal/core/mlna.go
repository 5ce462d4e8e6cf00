package core

import (
	"fmt"

	"alltoallx/internal/coll"
	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// mlNodeAware implements Algorithm 5, the paper's novel multi-leader +
// node-aware all-to-all (Section 3.3): gather to each of the node's
// leaders, replace the hierarchical inter-leader exchange with the
// node-aware scheme — an inter-node all-to-all among same-slot leaders
// (each leader sends exactly one message per node) followed by an
// intra-node all-to-all among the node's leaders — then scatter. Gather/
// scatter costs shrink with more leaders while inter-node message counts
// stay minimal: the small-message sweet spot the paper reports.
type mlNodeAware struct {
	*basic
	info worldInfo

	q        int // processes per leader
	nL       int // leaders per node
	myK, myJ int

	leaderLocal comm.Comm // my gather group (size q); leader is rank 0
	interComm   comm.Comm // same-slot leaders across nodes (size nnodes); nil on non-leaders
	intraComm   comm.Comm // the node's leaders (size nL); nil on non-leaders

	inner    innerExchange
	isLeader bool

	bufA, bufB comm.Buffer // leader staging: q*p*maxBlock each
}

func newMultileaderNodeAware(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
	info, err := getWorldInfo(c)
	if err != nil {
		return nil, err
	}
	if err := checkDivides("PPL", o.PPL, info); err != nil {
		return nil, err
	}
	m := &mlNodeAware{
		info: info, q: o.PPL, nL: info.ppn / o.PPL,
		inner: innerExchange{kind: o.Inner},
	}
	m.basic = newBasic("multileader-node-aware", c, maxBlock, m.run)
	m.myK = info.myLocal / m.q
	m.myJ = info.myLocal % m.q
	m.isLeader = m.myJ == 0

	// leader_comm: my gather group.
	m.leaderLocal, err = c.Split(info.myNode*m.nL+m.myK, m.myJ)
	if err != nil {
		return nil, fmt.Errorf("core: multileader-node-aware local split: %w", err)
	}
	// group_comm: leaders sharing my slot k across all nodes — the
	// node-aware inter-node exchange; rank order = node order.
	color := -1
	if m.isLeader {
		color = m.myK
	}
	m.interComm, err = c.Split(color, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("core: multileader-node-aware inter split: %w", err)
	}
	// leader_group_comm: the leaders of my node; rank order = slot order.
	color = -1
	if m.isLeader {
		color = info.myNode
	}
	m.intraComm, err = c.Split(color, c.Rank())
	if err != nil {
		return nil, fmt.Errorf("core: multileader-node-aware intra split: %w", err)
	}
	return m, nil
}

func (m *mlNodeAware) run(c comm.Comm, send, recv comm.Buffer, block int) error {
	p, q, ppn, nn, nL := m.info.p, m.q, m.info.ppn, m.info.nnodes, m.nL
	var bufA, bufB comm.Buffer
	if m.isLeader {
		bufA = comm.Stage(&m.bufA, send, q*p*block)
		bufB = comm.Stage(&m.bufB, send, q*p*block)
	}

	// Gather members' send buffers to the leader: bufA = [j][dstWorld].
	timer := m.rec.Time(trace.PhaseGather)
	err := coll.Gather(m.leaderLocal, 0, send.Slice(0, p*block), bufA, tagGather)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: multileader-node-aware gather: %w", err)
	}

	if m.isLeader {
		// Repack for the inter-node exchange: bufB = [N'][j][l'] — all of
		// my members' data for every rank of node N'. Member j's row is nn
		// node runs of ppn blocks, landing q runs apart.
		timer = m.rec.Time(trace.PhaseRepack)
		for j := 0; j < q; j++ {
			comm.CopyBlocks(bufB, j, q, bufA, j*nn, 1, nn, ppn*block)
		}
		err = c.ChargeCopy(p*q*block, p*q)
		timer.Stop()
		if err != nil {
			return err
		}

		// Inter-node all-to-all among same-slot leaders: q*ppn*block per
		// node pair — one message to each node, as in Algorithm 4.
		timer = m.rec.Time(trace.PhaseInter)
		err = m.inner.run(m.interComm, bufB, bufA, q*ppn*block)
		timer.Stop()
		if err != nil {
			return fmt.Errorf("core: multileader-node-aware inter exchange: %w", err)
		}

		// bufA now holds [N'][j'][l']: data from member j' of the slot-k
		// leader group on node N', destined to local rank l' of my node.
		// Repack per destination leader: bufB = [k''][N'][j'][d] with
		// l' = k''*q + d. Counted in runs of q blocks, the (N', j') pairs
		// for leader k'' sit nL runs apart in bufA, from run k'', and back
		// to back in bufB.
		timer = m.rec.Time(trace.PhaseRepack)
		for k2 := 0; k2 < nL; k2++ {
			comm.CopyBlocks(bufB, k2*nn*q, 1, bufA, k2, nL, nn*q, q*block)
		}
		err = c.ChargeCopy(p*q*block, p*q)
		timer.Stop()
		if err != nil {
			return err
		}

		// Intra-node all-to-all among the node's leaders:
		// nnodes*q*q*block per leader pair (the paper's
		// r_size*n_nodes*ppl^2).
		timer = m.rec.Time(trace.PhaseIntra)
		err = m.inner.run(m.intraComm, bufB, bufA, nn*q*q*block)
		timer.Stop()
		if err != nil {
			return fmt.Errorf("core: multileader-node-aware intra exchange: %w", err)
		}

		// bufA holds [k'''][N'][j'][d]: data from world rank
		// (N', k''', j') for my member d. Repack into scatter layout
		// [d][srcWorld]: for each (d, k''', j'), one strided copy across
		// the nodes — q*q blocks apart in bufA, ppn apart in bufB.
		timer = m.rec.Time(trace.PhaseRepack)
		for d := 0; d < q; d++ {
			for k3 := 0; k3 < nL; k3++ {
				for j2 := 0; j2 < q; j2++ {
					comm.CopyBlocks(bufB, d*p+k3*q+j2, ppn, bufA, (k3*nn*q+j2)*q+d, q*q, nn, block)
				}
			}
		}
		err = c.ChargeCopy(p*q*block, p*q)
		timer.Stop()
		if err != nil {
			return err
		}
	}

	// Scatter the final receive buffers to members.
	timer = m.rec.Time(trace.PhaseScatter)
	err = coll.Scatter(m.leaderLocal, 0, bufB, recv.Slice(0, p*block), tagScatter)
	timer.Stop()
	if err != nil {
		return fmt.Errorf("core: multileader-node-aware scatter: %w", err)
	}
	return nil
}
