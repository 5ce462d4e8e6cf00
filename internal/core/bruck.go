package core

import (
	"fmt"

	"alltoallx/internal/comm"
)

// bruckScratch is the Bruck exchange's staging, kept across calls and
// grown to fit: the rotated blocks (n·block) and the send and receive
// packs (⌈n/2⌉·block each). The bruck algorithm holds one, and so does a
// node-aware-family operation's Bruck inner exchange.
type bruckScratch struct {
	tmp, packS, packR comm.Buffer
}

func newBruck(c comm.Comm, maxBlock int, _ Options) (Alltoaller, error) {
	return newBasic("bruck", c, maxBlock, new(bruckScratch).run), nil
}

// run is the Bruck algorithm through the scratch: ceil(log2 p) exchange
// steps, each moving up to p/2 blocks — the message-count-optimal exchange
// the paper identifies as the small-message choice (and the likely system
// MPI algorithm at small sizes).
//
// Phase 1 rotates so local block i is the data destined to rank r+i. In
// step k (k = 1, 2, 4, ...) every rank forwards the blocks whose index has
// bit k set to rank r+k, storing received blocks at the same indices; a
// block with displacement i therefore reaches its destination after the
// steps matching i's binary digits, at which point local block i holds the
// data *from* rank r-i. Phase 3 inverts that rotation into recv order.
//
// Every repack is at most two strided block copies: a rotation is two
// contiguous runs, the bit-k blocks are full runs of k blocks every 2k
// plus a short last run, and the inversion is two reversed runs.
func (s *bruckScratch) run(c comm.Comm, send, recv comm.Buffer, block int) error {
	n, r := c.Size(), c.Rank()
	half := (n + 1) / 2
	tmp := comm.Stage(&s.tmp, send, n*block)
	packS := comm.Stage(&s.packS, send, half*block)
	packR := comm.Stage(&s.packR, send, half*block)
	// Phase 1: rotation tmp[i] = send[(r+i) mod n].
	comm.CopyBlocks(tmp, 0, 1, send, r, 1, n-r, block)
	comm.CopyBlocks(tmp, n-r, 1, send, 0, 1, r, block)
	if err := c.ChargeCopy(n*block, n); err != nil {
		return err
	}
	// Phase 2: log-step exchanges.
	for k := 1; k < n; k <<= 1 {
		dst := (r + k) % n
		src := (r - k + n) % n
		// The blocks with bit k set: full runs of k blocks at k, 3k, ...,
		// then a last run of tail < k blocks when n ends inside a run.
		full := n / (2 * k)
		tail := max(0, n-full*2*k-k)
		m := full*k + tail
		comm.CopyBlocks(packS, 0, 1, tmp, 1, 2, full, k*block)
		comm.CopyBlocks(packS, full*k, 1, tmp, (2*full+1)*k, 1, tail, block)
		if err := c.ChargeCopy(m*block, m); err != nil {
			return err
		}
		if err := c.Sendrecv(
			packS.Slice(0, m*block), dst, tagAlltoall+k,
			packR.Slice(0, m*block), src, tagAlltoall+k); err != nil {
			return fmt.Errorf("core: bruck step k=%d: %w", k, err)
		}
		comm.CopyBlocks(tmp, 1, 2, packR, 0, 1, full, k*block)
		comm.CopyBlocks(tmp, (2*full+1)*k, 1, packR, full*k, 1, tail, block)
		if err := c.ChargeCopy(m*block, m); err != nil {
			return err
		}
	}
	// Phase 3: tmp[i] now holds data from rank (r-i); invert into recv:
	// recv[j] = tmp[(r-j) mod n], a reversed run on each side of r.
	comm.CopyBlocks(recv, 0, 1, tmp, r, -1, r+1, block)
	comm.CopyBlocks(recv, r+1, 1, tmp, n-1, -1, n-r-1, block)
	return c.ChargeCopy(n*block, n)
}
