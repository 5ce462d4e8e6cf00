// Package collx implements the paper's future-work direction (Section 5):
// extending the node-aware approach "on both other HPC critical collectives
// (allgather, broadcast, etc.) and AI critical collectives (allreduce,
// reduce-scatter, etc.)".
//
// Every collective follows the same persistent-operation pattern as the
// all-to-all family in internal/core: a registry of named algorithms, a
// collective constructor (NewAllgather, NewAllreduce, NewReduceScatter)
// that performs all communicator splitting during setup, core.Options for
// configuration, and Phases() for per-call timing. The registered
// node-aware variants apply the paper's aggregation idea — do the
// inter-node part once per node via leaders, keep everything else inside
// the node — while ring/bruck allgather, recursive-doubling allreduce and
// pairwise reduce-scatter are the flat baselines. The free functions in
// this file are the underlying one-shot exchanges; library users should
// prefer the registry constructors.
package collx

import (
	"fmt"

	"alltoallx/internal/comm"
)

// Tag bases for collx operations (distinct from core's).
const (
	tagAllgather = 401
	tagAllreduce = 501
	tagReduceSc  = 601
	tagBcastX    = 701
	tagReduce    = 801
)

// Op accumulates in into acc element-wise (acc += in). Implementations
// must tolerate arbitrary lengths that are multiples of their element
// size.
type Op func(acc, in []byte)

// SumInt64 adds little-endian int64 elements.
func SumInt64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := int64(leU64(acc[i:]))
		b := int64(leU64(in[i:]))
		putLeU64(acc[i:], uint64(a+b))
	}
}

// MaxInt64 keeps the element-wise maximum of little-endian int64s.
func MaxInt64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := int64(leU64(acc[i:]))
		b := int64(leU64(in[i:]))
		if b > a {
			putLeU64(acc[i:], uint64(b))
		}
	}
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// apply runs op on real buffers and charges the equivalent compute as a
// copy pass; virtual buffers charge only.
func apply(c comm.Comm, op Op, acc, in comm.Buffer) error {
	if !acc.IsVirtual() && !in.IsVirtual() {
		op(acc.Bytes(), in.Bytes())
	}
	return c.ChargeCopy(in.Len(), 1)
}

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

// AllreduceRecursiveDoubling reduces buf element-wise across all ranks and
// leaves the full result on every rank. Non-power-of-two counts fold the
// extra ranks into the nearest power of two first (standard MPI scheme).
func AllreduceRecursiveDoubling(c comm.Comm, buf comm.Buffer, op Op) error {
	n, r := c.Size(), c.Rank()
	if n == 1 {
		return nil
	}
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2
	tmp := allocLike(buf, buf.Len())
	// Fold: ranks [pow2, n) send to [0, rem); those partners pre-reduce.
	if r >= pow2 {
		if err := c.Send(buf, r-pow2, tagAllreduce); err != nil {
			return err
		}
	} else if r < rem {
		if err := c.Recv(tmp, r+pow2, tagAllreduce); err != nil {
			return err
		}
		if err := apply(c, op, buf, tmp); err != nil {
			return err
		}
	}
	if r < pow2 {
		for mask := 1; mask < pow2; mask <<= 1 {
			partner := r ^ mask
			if err := c.Sendrecv(buf, partner, tagAllreduce+mask, tmp, partner, tagAllreduce+mask); err != nil {
				return fmt.Errorf("collx: allreduce mask %d: %w", mask, err)
			}
			if err := apply(c, op, buf, tmp); err != nil {
				return err
			}
		}
	}
	// Unfold: results back to the folded ranks.
	if r >= pow2 {
		return c.Recv(buf, r-pow2, tagAllreduce+1<<20)
	}
	if r < rem {
		return c.Send(buf, r+pow2, tagAllreduce+1<<20)
	}
	return nil
}

// ReduceScatterPairwise leaves, on each rank, the element-wise reduction
// of every rank's block for it: recv = sum over s of send_s[rank]. One of
// the paper's named AI-critical collectives.
func ReduceScatterPairwise(c comm.Comm, send, recv comm.Buffer, block int, op Op) error {
	n, r := c.Size(), c.Rank()
	if block <= 0 {
		return fmt.Errorf("collx: block must be positive, got %d", block)
	}
	if send.Len() < n*block {
		return fmt.Errorf("collx: send buffer %d short of %d", send.Len(), n*block)
	}
	if recv.Len() < block {
		return fmt.Errorf("collx: recv buffer %d short of block %d", recv.Len(), block)
	}
	if err := c.Memcpy(recv.Slice(0, block), send.Slice(r*block, block)); err != nil {
		return err
	}
	tmp := allocLike(send, block)
	for i := 1; i < n; i++ {
		dst := (r + i) % n
		src := (r - i + n) % n
		if err := c.Sendrecv(
			send.Slice(dst*block, block), dst, tagReduceSc+i,
			tmp, src, tagReduceSc+i); err != nil {
			return fmt.Errorf("collx: reduce-scatter step %d: %w", i, err)
		}
		if err := apply(c, op, recv.Slice(0, block), tmp); err != nil {
			return err
		}
	}
	return nil
}
