package core

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
)

// stagingAllocs runs algo on 2 x 8 live ranks with maxBlock large: one
// call at large, then calls alternating blocks of size a and large,
// each checked byte for byte. It returns the bytes every rank allocated
// during the calls after the first.
func stagingAllocs(t *testing.T, algo string, a, large, calls int) uint64 {
	t.Helper()
	var before, after goruntime.MemStats
	err := runtime.Run(runtime.Config{Mapping: mapping(t, 2, 8)}, func(c comm.Comm) error {
		p, rank := c.Size(), c.Rank()
		alg, err := New(algo, c, large, Options{})
		if err != nil {
			return err
		}
		send, recv := comm.Alloc(p*large), comm.Alloc(p*large)
		exchange := func(block int) error {
			s, r := send.Slice(0, p*block), recv.Slice(0, p*block)
			testutil.FillAlltoall(s, rank, p, block)
			clear(r.Bytes())
			if err := alg.Alltoall(s, r, block); err != nil {
				return err
			}
			if err := testutil.CheckAlltoall(r, rank, p, block); err != nil {
				return fmt.Errorf("%d B blocks: %w", block, err)
			}
			return nil
		}
		if err := exchange(large); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			goruntime.ReadMemStats(&before)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for i := 0; i < calls; i++ {
			block := large
			if i%2 == 0 {
				block = a
			}
			if err := exchange(block); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			goruntime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestStagingFollowsBlockSize runs each algorithm that keeps staging
// buffers with calls alternating 256 B and 1 KiB blocks after one call
// at 1 KiB, its maxBlock. The first call's staging serves every smaller
// block, so the alternating calls may allocate at most twice what as
// many calls at a fixed 1 KiB do (plus 4 KiB per call of slack for the
// runtime's own allocations); rebuilding staging at each change of size
// allocates 9 to 21 times as much. Not parallel: runtime.MemStats counts
// every goroutine's allocations.
func TestStagingFollowsBlockSize(t *testing.T) {
	const small, large, calls = 256, 1024, 8
	for _, algo := range []string{"bruck", "node-aware", "hierarchical", "multileader-node-aware"} {
		alternating := stagingAllocs(t, algo, small, large, calls)
		fixed := stagingAllocs(t, algo, large, large, calls)
		t.Logf("%s: %d B per call alternating %d B and %d B blocks, %d B at %d B", algo, alternating/calls, small, large, fixed/calls, large)
		if limit := 2*fixed + 4<<10*calls; alternating > limit {
			t.Errorf("%s: calls alternating %d B and %d B blocks allocated %d B, want at most %d (twice the %d B of fixed %d B blocks, plus 4 KiB a call)",
				algo, small, large, alternating, limit, fixed, large)
		}
	}
}
