// Package coll provides the collective building blocks the paper's
// Algorithms 3 and 5 are assembled from: gather and scatter (linear and
// binomial-tree variants), binomial broadcast, and a dissemination barrier.
// All operations are written against comm.Comm, so they run on both the
// live runtime and the simulator.
//
// Layout convention (matching MPI): Gather concatenates contributions in
// rank order into the root's receive buffer; Scatter distributes the root's
// send buffer in rank order. Both accept any root; the hierarchical
// algorithms always use root 0 (the leader is rank 0 of its local
// communicator), which is the fast path.
package coll

import (
	"fmt"

	"alltoallx/internal/comm"
)

// Kind selects a gather/scatter algorithm.
type Kind int

const (
	// Linear exchanges directly with the root: p-1 messages, no extra
	// copies. MPI libraries prefer it for large blocks.
	Linear Kind = iota
	// Binomial uses a binomial tree: log2(p) rounds, fewer messages at the
	// root, extra staging copies. Preferred for small blocks.
	Binomial
)

func (k Kind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Binomial:
		return "binomial"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// allocLike returns a buffer of n bytes matching ref's virtualness, so
// staging buffers never force payload allocation in virtual simulations.
func allocLike(ref comm.Buffer, n int) comm.Buffer {
	if ref.IsVirtual() {
		return comm.Virtual(n)
	}
	return comm.Alloc(n)
}

// Gather collects equal-size contributions to root: every rank passes its
// send buffer; recv is significant only at root and must hold
// send.Len()*Size() bytes.
func Gather(c comm.Comm, root int, send, recv comm.Buffer, kind Kind, tag int) error {
	switch kind {
	case Linear:
		return gatherLinear(c, root, send, recv, tag)
	case Binomial:
		return gatherBinomial(c, root, send, recv, tag)
	}
	return fmt.Errorf("coll: unknown gather kind %v", kind)
}

func gatherLinear(c comm.Comm, root int, send, recv comm.Buffer, tag int) error {
	n, rank := c.Size(), c.Rank()
	if err := comm.CheckPeer(root, n); err != nil {
		return err
	}
	block := send.Len()
	if rank != root {
		return c.Send(send, root, tag)
	}
	if recv.Len() < block*n {
		return fmt.Errorf("coll: gather recv buffer %d short of %d", recv.Len(), block*n)
	}
	reqs := make([]comm.Request, 0, n-1)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		req, err := c.Irecv(recv.Slice(r*block, block), r, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	if err := c.Memcpy(recv.Slice(root*block, block), send); err != nil {
		return err
	}
	return c.WaitAll(reqs)
}

// gatherBinomial gathers along a binomial tree in relative rank order
// (rel = (rank-root+n) mod n). Each rank accumulates the contiguous
// relative range [rel, rel+cnt) before forwarding it to its parent. For
// root != 0 the result arrives in relative order and is rotated into
// absolute order with one extra pass.
// subtreeExtent returns how many consecutive relative ranks the rank at
// relative position rel accumulates in a binomial tree over n ranks: its
// lowest set bit, clipped to the end of the rank space (n for the root).
func subtreeExtent(rel, n int) int {
	if rel == 0 {
		return n
	}
	low := rel & (-rel)
	if rel+low > n {
		return n - rel
	}
	return low
}

func gatherBinomial(c comm.Comm, root int, send, recv comm.Buffer, tag int) error {
	n, rank := c.Size(), c.Rank()
	if err := comm.CheckPeer(root, n); err != nil {
		return err
	}
	block := send.Len()
	if rank == root && recv.Len() < block*n {
		return fmt.Errorf("coll: gather recv buffer %d short of %d", recv.Len(), block*n)
	}
	rel := (rank - root + n) % n
	extent := subtreeExtent(rel, n)
	var stage comm.Buffer
	if rel == 0 && root == 0 {
		stage = recv // gather in place at a rank-0 root
	} else {
		stage = allocLike(send, extent*block)
	}
	if err := c.Memcpy(stage.Slice(0, block), send); err != nil {
		return err
	}
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := (rel - mask + root) % n
			return c.Send(stage.Slice(0, extent*block), parent, tag)
		}
		childRel := rel + mask
		if childRel < n {
			cnt := subtreeExtent(childRel, n)
			if err := c.Recv(stage.Slice(mask*block, cnt*block), (childRel+root)%n, tag); err != nil {
				return err
			}
		}
	}
	// Only the root reaches here (every non-root exits via its Send).
	if root == 0 {
		return nil // gathered in place
	}
	// Rotate relative order back to absolute rank order: relative index
	// i is rank (i+root) mod n.
	comm.CopyBlocks(recv, root, 1, stage, 0, 1, n-root, block)
	comm.CopyBlocks(recv, 0, 1, stage, n-root, 1, root, block)
	return c.ChargeCopy(n*block, n)
}

// Scatter distributes the root's send buffer (Size() equal blocks in rank
// order) so each rank receives its block into recv. send is significant
// only at root.
func Scatter(c comm.Comm, root int, send, recv comm.Buffer, kind Kind, tag int) error {
	switch kind {
	case Linear:
		return scatterLinear(c, root, send, recv, tag)
	case Binomial:
		return scatterBinomial(c, root, send, recv, tag)
	}
	return fmt.Errorf("coll: unknown scatter kind %v", kind)
}

func scatterLinear(c comm.Comm, root int, send, recv comm.Buffer, tag int) error {
	n, rank := c.Size(), c.Rank()
	if err := comm.CheckPeer(root, n); err != nil {
		return err
	}
	block := recv.Len()
	if rank != root {
		return c.Recv(recv, root, tag)
	}
	if send.Len() < block*n {
		return fmt.Errorf("coll: scatter send buffer %d short of %d", send.Len(), block*n)
	}
	reqs := make([]comm.Request, 0, n-1)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		req, err := c.Isend(send.Slice(r*block, block), r, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	if err := c.Memcpy(recv, send.Slice(root*block, block)); err != nil {
		return err
	}
	return c.WaitAll(reqs)
}

// scatterBinomial reverses the binomial gather: blocks flow from the root
// down the tree in relative rank order.
func scatterBinomial(c comm.Comm, root int, send, recv comm.Buffer, tag int) error {
	n, rank := c.Size(), c.Rank()
	if err := comm.CheckPeer(root, n); err != nil {
		return err
	}
	block := recv.Len()
	rel := (rank - root + n) % n
	// myMask: the bit at which this rank attaches to its parent; also the
	// upper bound on the subtree it redistributes.
	myMask := 0
	if rel != 0 {
		for mask := 1; ; mask <<= 1 {
			if rel&mask != 0 {
				myMask = mask
				break
			}
		}
	} else {
		myMask = 1
		for myMask < n {
			myMask <<= 1
		}
	}
	extent := myMask
	if rel+extent > n {
		extent = n - rel
	}
	var stage comm.Buffer
	if rel == 0 {
		if send.Len() < block*n {
			return fmt.Errorf("coll: scatter send buffer %d short of %d", send.Len(), block*n)
		}
		if root == 0 {
			stage = send
		} else {
			// Rotate absolute order into relative order once at the root.
			stage = allocLike(recv, n*block)
			comm.CopyBlocks(stage, 0, 1, send, root, 1, n-root, block)
			comm.CopyBlocks(stage, n-root, 1, send, 0, 1, root, block)
			if err := c.ChargeCopy(n*block, n); err != nil {
				return err
			}
		}
	} else {
		if extent > 1 {
			stage = allocLike(recv, extent*block)
		} else {
			stage = recv
		}
		parent := (rel - myMask + root) % n
		if err := c.Recv(stage.Slice(0, extent*block), parent, tag); err != nil {
			return err
		}
	}
	for mask := myMask >> 1; mask >= 1; mask >>= 1 {
		childRel := rel + mask
		if childRel >= n {
			continue
		}
		cnt := mask
		if childRel+cnt > n {
			cnt = n - childRel
		}
		if err := c.Send(stage.Slice(mask*block, cnt*block), (childRel+root)%n, tag); err != nil {
			return err
		}
	}
	if rel == 0 {
		return c.Memcpy(recv, stage.Slice(0, block))
	}
	if extent > 1 {
		return c.Memcpy(recv, stage.Slice(0, block))
	}
	return nil // received directly into recv
}

// Bcast broadcasts the root's buffer to all ranks along a binomial tree.
func Bcast(c comm.Comm, root int, b comm.Buffer, tag int) error {
	n, rank := c.Size(), c.Rank()
	if err := comm.CheckPeer(root, n); err != nil {
		return err
	}
	rel := (rank - root + n) % n
	myMask := 0
	if rel != 0 {
		for mask := 1; ; mask <<= 1 {
			if rel&mask != 0 {
				myMask = mask
				break
			}
		}
		parent := (rel - myMask + root) % n
		if err := c.Recv(b, parent, tag); err != nil {
			return err
		}
	} else {
		myMask = 1
		for myMask < n {
			myMask <<= 1
		}
	}
	for mask := myMask >> 1; mask >= 1; mask >>= 1 {
		childRel := rel + mask
		if childRel >= n {
			continue
		}
		if err := c.Send(b, (childRel+root)%n, tag); err != nil {
			return err
		}
	}
	return nil
}

// Barrier is a dissemination barrier: ceil(log2 n) rounds of zero-byte
// exchanges. (The simulator's communicators implement their own Barrier
// with identical structure; this one serves the live runtime's
// sub-communicators and tests.)
func Barrier(c comm.Comm, tag int) error {
	n, rank := c.Size(), c.Rank()
	if n == 1 {
		return nil
	}
	empty := comm.Buffer{}
	round := 0
	for k := 1; k < n; k <<= 1 {
		to := (rank + k) % n
		from := (rank - k%n + n) % n
		if err := c.Sendrecv(empty, to, tag+round, empty, from, tag+round); err != nil {
			return fmt.Errorf("coll: barrier round %d: %w", round, err)
		}
		round++
	}
	return nil
}
