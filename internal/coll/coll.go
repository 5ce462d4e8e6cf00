// Package coll provides the collective building blocks the paper's
// Algorithms 3 and 5 are assembled from: a linear gather and scatter, in
// which every rank exchanges directly with the root. Both are written
// against comm.Comm, so they run on both the live runtime and the
// simulator.
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

// Gather collects equal-size contributions to root: every rank passes its
// send buffer; recv is significant only at root and must hold
// send.Len()*Size() bytes. The root posts one receive per rank straight
// into recv: p-1 messages and no staging copies.
func Gather(c comm.Comm, root int, send, recv comm.Buffer, tag int) error {
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

// Scatter distributes the root's send buffer (Size() equal blocks in rank
// order) so each rank receives its block into recv. send is significant
// only at root, which sends each block straight to its rank.
func Scatter(c comm.Comm, root int, send, recv comm.Buffer, tag int) error {
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
