package core

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
)

// rendezvousOnly is an eager limit that sends every message of more than
// one byte by rendezvous. An eager message that arrives before its
// receive takes a bounce buffer, and how many a world's mailboxes keep
// follows the run's timing; with none, a test can hold an operation's
// own allocations to a few KiB.
const rendezvousOnly = 1

// liveAllocs runs body on 2 x 8 live ranks with the eager limit eagerMax
// (0 for the runtime's default). body sets its rank up and returns the
// step to measure; liveAllocs returns the bytes every rank allocated
// during that step, which barriers fence off from the rest. Callers are
// not parallel: runtime.MemStats counts every goroutine's allocations.
func liveAllocs(t *testing.T, label string, eagerMax int, body func(c comm.Comm) (func() error, error)) uint64 {
	t.Helper()
	var before, after goruntime.MemStats
	err := runtime.Run(runtime.Config{Mapping: mapping(t, 2, 8), EagerMax: eagerMax}, func(c comm.Comm) error {
		step, err := body(c)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			goruntime.ReadMemStats(&before)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := step(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			goruntime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// checkedExchange runs alg on the first block-byte blocks of send and
// recv and checks every byte it delivers.
func checkedExchange(c comm.Comm, alg Alltoaller, send, recv comm.Buffer, block int) error {
	p, rank := c.Size(), c.Rank()
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

// stagingAllocs runs algo with opts, maxBlock large, under the eager
// limit eagerMax: one call at large, then calls alternating blocks of
// size a and large. It returns the bytes every rank allocated during the
// calls after the first.
func stagingAllocs(t *testing.T, algo string, opts Options, eagerMax, a, large, calls int) uint64 {
	t.Helper()
	return liveAllocs(t, algo, eagerMax, func(c comm.Comm) (func() error, error) {
		alg, err := New(algo, c, large, opts)
		if err != nil {
			return nil, err
		}
		send, recv := comm.Alloc(c.Size()*large), comm.Alloc(c.Size()*large)
		if err := checkedExchange(c, alg, send, recv, large); err != nil {
			return nil, err
		}
		return func() error {
			for i := 0; i < calls; i++ {
				block := large
				if i%2 == 0 {
					block = a
				}
				if err := checkedExchange(c, alg, send, recv, block); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
}

// TestStagingFollowsBlockSize runs each algorithm that keeps staging
// buffers with calls alternating 256 B and 1 KiB blocks after one call
// at 1 KiB, its maxBlock. The first call's staging serves every smaller
// block, so the alternating calls may allocate at most twice what as
// many calls at a fixed 1 KiB do (plus 4 KiB per call of slack for the
// runtime's own allocations); rebuilding staging at each change of size
// allocates 9 to 21 times as much.
func TestStagingFollowsBlockSize(t *testing.T) {
	const small, large, calls = 256, 1024, 8
	for _, algo := range []string{"bruck", "node-aware", "hierarchical", "multileader-node-aware", "sched:bruck"} {
		alternating := stagingAllocs(t, algo, Options{}, 0, small, large, calls)
		fixed := stagingAllocs(t, algo, Options{}, 0, large, large, calls)
		t.Logf("%s: %d B per call alternating %d B and %d B blocks, %d B at %d B", algo, alternating/calls, small, large, fixed/calls, large)
		if limit := 2*fixed + 4<<10*calls; alternating > limit {
			t.Errorf("%s: calls alternating %d B and %d B blocks allocated %d B, want at most %d (twice the %d B of fixed %d B blocks, plus 4 KiB a call)",
				algo, small, large, alternating, limit, fixed, large)
		}
	}
}

// TestBruckInnerKeepsScratch runs the leader and node-aware algorithms
// with the Bruck inner exchange at fixed 1 KiB blocks, every message by
// rendezvous. The Bruck scratch is the operation's, kept from the first
// call, so a later call may allocate at most what the same algorithm
// does with the pairwise inner exchange, plus 4 KiB of slack; a Bruck
// exchange that allocates its staging per call costs about n·block more
// each time.
func TestBruckInnerKeepsScratch(t *testing.T) {
	const block, calls = 1024, 8
	for _, algo := range []string{"hierarchical", "node-aware", "multileader-node-aware"} {
		bruck := stagingAllocs(t, algo, Options{Inner: InnerBruck}, rendezvousOnly, block, block, calls) / calls
		pairwise := stagingAllocs(t, algo, Options{Inner: InnerPairwise}, rendezvousOnly, block, block, calls) / calls
		t.Logf("%s: %d B per call with the bruck inner exchange, %d B with pairwise", algo, bruck, pairwise)
		if limit := pairwise + 4<<10; bruck > limit {
			t.Errorf("%s: a call with the bruck inner exchange allocated %d B, want at most %d (the pairwise inner exchange's %d B plus 4 KiB)",
				algo, bruck, limit, pairwise)
		}
	}
}

// TestNodeAwareStagesInRecv measures the first call of node-aware and
// locality-aware at 4 KiB blocks on 2 x 8 ranks, every message by
// rendezvous: the call that builds the operation's staging. Both stage
// through the caller's recv, so that is one buffer of p blocks (64 KiB)
// per rank, and each rank may allocate at most that plus 4 KiB of slack;
// a second staging buffer would double it. A twin operation's call first
// fills the runtime's own free lists (pooled requests, queue capacity),
// which belong to the world, not to the operation.
func TestNodeAwareStagesInRecv(t *testing.T) {
	const block, ranks = 4 << 10, 16
	for _, tc := range []struct {
		algo string
		opts Options
	}{
		{"node-aware", Options{}},
		{"locality-aware", Options{PPG: 4}},
	} {
		got := liveAllocs(t, tc.algo, rendezvousOnly, func(c comm.Comm) (func() error, error) {
			twin, err := New(tc.algo, c, block, tc.opts)
			if err != nil {
				return nil, err
			}
			alg, err := New(tc.algo, c, block, tc.opts)
			if err != nil {
				return nil, err
			}
			send, recv := comm.Alloc(c.Size()*block), comm.Alloc(c.Size()*block)
			if err := checkedExchange(c, twin, send, recv, block); err != nil {
				return nil, err
			}
			return func() error { return checkedExchange(c, alg, send, recv, block) }, nil
		})
		perRank := got / ranks
		t.Logf("%s: first call allocated %d B per rank", tc.algo, perRank)
		if limit := uint64(ranks*block + 4<<10); perRank > limit {
			t.Errorf("%s: first call allocated %d B per rank, want at most %d (one %d-block staging buffer of %d B blocks, plus 4 KiB)",
				tc.algo, perRank, limit, ranks, block)
		}
	}
}
