// Package collx extends the paper's node-aware approach to the other
// HPC-critical collectives its Section 5 names as future work: "on both
// other HPC critical collectives (allgather, broadcast, etc.)".
//
// Every collective follows the same persistent-operation pattern as the
// all-to-all family in internal/core: a registry of named algorithms, a
// collective constructor (NewAllgather) that performs all communicator
// splitting during setup, core.Options for configuration, and Phases()
// for per-call timing. The registered node-aware variant applies the
// paper's aggregation idea — do the inter-node part once per node via
// leaders, keep everything else inside the node — while ring and bruck
// allgather are the flat baselines. The free functions in this file are
// the underlying one-shot exchanges; library users should prefer the
// registry constructor.
package collx

import (
	"fmt"

	"alltoallx/internal/comm"
)

// Tag bases for collx operations (distinct from core's).
const (
	tagAllgather = 401
	tagBcastX    = 701
)

func allocLike(ref comm.Buffer, n int) comm.Buffer {
	if ref.IsVirtual() {
		return comm.Virtual(n)
	}
	return comm.Alloc(n)
}

// AllgatherRing gathers every rank's block to all ranks in p-1
// neighbor-to-neighbor steps: bandwidth-optimal, latency-heavy.
func AllgatherRing(c comm.Comm, send, recv comm.Buffer, block int) error {
	n, r := c.Size(), c.Rank()
	if err := checkAG(c, send, recv, block); err != nil {
		return err
	}
	if err := c.Memcpy(recv.Slice(r*block, block), send.Slice(0, block)); err != nil {
		return err
	}
	right := (r + 1) % n
	left := (r - 1 + n) % n
	for i := 0; i < n-1; i++ {
		outIdx := (r - i + n) % n
		inIdx := (r - i - 1 + n) % n
		if err := c.Sendrecv(
			recv.Slice(outIdx*block, block), right, tagAllgather+i,
			recv.Slice(inIdx*block, block), left, tagAllgather+i); err != nil {
			return fmt.Errorf("collx: allgather ring step %d: %w", i, err)
		}
	}
	return nil
}

// AllgatherBruck gathers in ceil(log2 p) doubling steps, then rotates —
// the latency-optimal variant (the paper's reference [1] extends it with
// locality awareness, mirrored here by NodeAware.Allgather).
func AllgatherBruck(c comm.Comm, send, recv comm.Buffer, block int) error {
	n, r := c.Size(), c.Rank()
	if err := checkAG(c, send, recv, block); err != nil {
		return err
	}
	tmp := allocLike(send, n*block)
	if err := c.Memcpy(tmp.Slice(0, block), send.Slice(0, block)); err != nil {
		return err
	}
	have := 1
	step := 0
	for have < n {
		cnt := have
		if have+cnt > n {
			cnt = n - have
		}
		dst := (r - have + n) % n
		src := (r + have) % n
		if err := c.Sendrecv(
			tmp.Slice(0, cnt*block), dst, tagAllgather+32+step,
			tmp.Slice(have*block, cnt*block), src, tagAllgather+32+step); err != nil {
			return fmt.Errorf("collx: allgather bruck step %d: %w", step, err)
		}
		have += cnt
		step++
	}
	// tmp[i] holds rank (r+i)%n's block; rotate into rank order.
	comm.CopyBlocks(recv, r, 1, tmp, 0, 1, n-r, block)
	comm.CopyBlocks(recv, 0, 1, tmp, n-r, 1, r, block)
	return c.ChargeCopy(n*block, n)
}

func checkAG(c comm.Comm, send, recv comm.Buffer, block int) error {
	if block <= 0 {
		return fmt.Errorf("collx: block must be positive, got %d", block)
	}
	if send.Len() < block {
		return fmt.Errorf("collx: send buffer %d short of block %d", send.Len(), block)
	}
	if recv.Len() < block*c.Size() {
		return fmt.Errorf("collx: recv buffer %d short of %d", recv.Len(), block*c.Size())
	}
	return nil
}
