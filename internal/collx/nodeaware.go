package collx

import (
	"fmt"

	"alltoallx/internal/coll"
	"alltoallx/internal/comm"
)

// NodeAware applies the paper's aggregation strategy to allgather,
// allreduce and broadcast: one leader per node performs the inter-node
// part, everything else stays on the node. Construct once per
// communicator (collective call), reuse across operations — the same
// persistent-object pattern as the all-to-all family.
type NodeAware struct {
	c       comm.Comm
	local   comm.Comm // my node's ranks; leader is local rank 0
	leaders comm.Comm // one leader per node (nil on non-leaders)
	ppn     int
	nnodes  int
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
	na := &NodeAware{c: c, ppn: m.PPN(), nnodes: m.Nodes(), myLocal: m.LocalRank(c.Rank())}
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

// Allreduce reduces buf element-wise across all ranks, leaving the result
// everywhere: linear reduce to the node leader, recursive doubling among
// leaders, broadcast down.
func (na *NodeAware) Allreduce(buf comm.Buffer, op Op) error {
	if err := na.reduceToLeader(buf, op); err != nil {
		return err
	}
	if na.myLocal == 0 {
		if err := AllreduceRecursiveDoubling(na.leaders, buf, op); err != nil {
			return fmt.Errorf("collx: node-aware allreduce leaders: %w", err)
		}
	}
	if err := coll.Bcast(na.local, 0, buf, tagAllreduce+96); err != nil {
		return fmt.Errorf("collx: node-aware allreduce bcast: %w", err)
	}
	return nil
}

// ReduceScatter leaves each rank the reduction of all ranks' blocks for
// it: node-local pre-reduction of each destination block at the leader,
// pairwise reduce-scatter of node sums among leaders, scatter inside the
// node.
func (na *NodeAware) ReduceScatter(send, recv comm.Buffer, block int, op Op) error {
	p := na.c.Size()
	if send.Len() < p*block {
		return fmt.Errorf("collx: reduce-scatter send buffer %d short of %d", send.Len(), p*block)
	}
	if recv.Len() < block {
		return fmt.Errorf("collx: reduce-scatter recv buffer %d short of %d", recv.Len(), block)
	}
	isLeader := na.myLocal == 0
	// Step 1: element-wise reduce all members' full send buffers onto the
	// leader (linear: recv and fold one member at a time).
	var acc comm.Buffer
	if isLeader {
		acc = allocLike(send, p*block)
		if err := na.c.Memcpy(acc, send.Slice(0, p*block)); err != nil {
			return err
		}
		tmp := allocLike(send, p*block)
		for m := 1; m < na.local.Size(); m++ {
			if err := na.local.Recv(tmp, m, tagReduce); err != nil {
				return err
			}
			if err := apply(na.c, op, acc, tmp); err != nil {
				return err
			}
		}
	} else {
		if err := na.local.Send(send.Slice(0, p*block), 0, tagReduce); err != nil {
			return err
		}
	}
	// Step 2: pairwise reduce-scatter among leaders with node-sized
	// blocks; leader n ends with the reduced ppn blocks of its node.
	var nodeBlock comm.Buffer
	if isLeader {
		nodeBlock = allocLike(send, na.ppn*block)
		if err := ReduceScatterPairwise(na.leaders, acc, nodeBlock, na.ppn*block, op); err != nil {
			return fmt.Errorf("collx: node-aware reduce-scatter leaders: %w", err)
		}
	}
	// Step 3: scatter the node's blocks to its ranks.
	if err := coll.Scatter(na.local, 0, nodeBlock, recv.Slice(0, block), tagReduceSc+128); err != nil {
		return fmt.Errorf("collx: node-aware reduce-scatter scatter: %w", err)
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

// reduceToLeader folds every member's buffer onto the node leader.
func (na *NodeAware) reduceToLeader(buf comm.Buffer, op Op) error {
	if na.myLocal != 0 {
		return na.local.Send(buf, 0, tagReduce+32)
	}
	tmp := allocLike(buf, buf.Len())
	for mrank := 1; mrank < na.local.Size(); mrank++ {
		if err := na.local.Recv(tmp, mrank, tagReduce+32); err != nil {
			return err
		}
		if err := apply(na.c, op, buf, tmp); err != nil {
			return err
		}
	}
	return nil
}
