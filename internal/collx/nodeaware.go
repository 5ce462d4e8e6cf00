package collx

import (
	"fmt"

	"alltoallx/internal/coll"
	"alltoallx/internal/comm"
)

// NodeAware applies the paper's aggregation strategy to allgather and
// broadcast: one leader per node performs the inter-node part, everything
// else stays on the node. Construct once per communicator (collective
// call), reuse across operations — the same persistent-object pattern as
// the all-to-all family.
type NodeAware struct {
	c       comm.Comm
	local   comm.Comm // my node's ranks; leader is local rank 0
	leaders comm.Comm // one leader per node (nil on non-leaders)
	ppn     int
	myLocal int
}

// NewNodeAware splits node-level communicators from the world
// communicator c (which must carry a topology mapping).
func NewNodeAware(c comm.Comm) (*NodeAware, error) {
	m := c.Topo()
	if m == nil {
		return nil, fmt.Errorf("collx: communicator carries no topology")
	}
	if m.Size() != c.Size() {
		return nil, fmt.Errorf("collx: topology size %d != communicator size %d", m.Size(), c.Size())
	}
	na := &NodeAware{c: c, ppn: m.PPN(), myLocal: m.LocalRank(c.Rank())}
	var err error
	na.local, err = c.Split(m.NodeOf(c.Rank()), na.myLocal)
	if err != nil {
		return nil, err
	}
	color := -1
	if na.myLocal == 0 {
		color = 0
	}
	na.leaders, err = c.Split(color, c.Rank())
	if err != nil {
		return nil, err
	}
	return na, nil
}

// Allgather gathers every rank's block to all ranks: gather to the node
// leader, Bruck allgather among leaders (one inter-node message stream per
// node), broadcast the full result inside the node. Output order is world
// rank order (block rank layout).
func (na *NodeAware) Allgather(send, recv comm.Buffer, block int) error {
	if err := checkAG(na.c, send, recv, block); err != nil {
		return err
	}
	p := na.c.Size()
	isLeader := na.myLocal == 0
	var nodeBuf comm.Buffer
	if isLeader {
		nodeBuf = allocLike(send, na.ppn*block)
	}
	if err := coll.Gather(na.local, 0, send.Slice(0, block), nodeBuf, tagAllgather+64); err != nil {
		return fmt.Errorf("collx: node-aware allgather gather: %w", err)
	}
	if isLeader {
		// Leaders are ordered by node, so their Bruck allgather lands
		// directly in world order.
		if err := AllgatherBruck(na.leaders, nodeBuf, recv.Slice(0, p*block), na.ppn*block); err != nil {
			return fmt.Errorf("collx: node-aware allgather leader exchange: %w", err)
		}
	}
	if err := coll.Bcast(na.local, 0, recv.Slice(0, p*block), tagAllgather+96); err != nil {
		return fmt.Errorf("collx: node-aware allgather bcast: %w", err)
	}
	return nil
}

// Bcast broadcasts root's buffer: binomial among leaders, then binomial
// inside each node — at most one copy of the payload crosses into each
// node.
func (na *NodeAware) Bcast(root int, b comm.Buffer) error {
	m := na.c.Topo()
	rootNode := m.NodeOf(root)
	rootLocal := m.LocalRank(root)
	// Move the payload to the root node's leader if the root is not it.
	if rootLocal != 0 {
		if na.c.Rank() == root {
			if err := na.local.Send(b, 0, tagBcastX); err != nil {
				return err
			}
		}
		if na.myLocal == 0 && m.NodeOf(na.c.Rank()) == rootNode {
			if err := na.local.Recv(b, rootLocal, tagBcastX); err != nil {
				return err
			}
		}
	}
	if na.myLocal == 0 {
		if err := coll.Bcast(na.leaders, rootNode, b, tagBcastX+32); err != nil {
			return fmt.Errorf("collx: node-aware bcast leaders: %w", err)
		}
	}
	return coll.Bcast(na.local, 0, b, tagBcastX+64)
}
