package core

import (
	"fmt"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sched"
)

// TestSchedCacheBounded is the regression test for the unbounded
// schedCache: retained bytes must never exceed the configured limit, no
// matter how many (generator, world shape) pairs a sweep compiles.
// Not parallel: it narrows the global cache limit.
func TestSchedCacheBounded(t *testing.T) {
	const limit = 64 << 10 // 64 KiB: the rank programs of a few small worlds
	old := setSchedCacheLimit(limit)
	defer setSchedCacheLimit(old)
	inserted := 0 // rank programs built
	for _, p := range []int{4, 6, 8, 10, 12, 14, 16} {
		for _, gen := range []string{"sched:pairwise", "sched:ring", "sched:torus"} {
			gen := gen
			err := runtime.Run(runtime.Config{Ranks: p}, func(c comm.Comm) error {
				_, err := New(gen, c, 8, Options{})
				return err
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", gen, p, err)
			}
			inserted += p
			if n, bytes := schedCacheStats(); bytes > limit {
				t.Fatalf("after %s p=%d: cache holds %d B in %d entries, limit %d", gen, p, bytes, n, limit)
			}
		}
	}
	n, _ := schedCacheStats()
	if n == 0 {
		t.Fatalf("cache empty: eviction should leave recent entries resident")
	}
	if n >= inserted {
		t.Fatalf("cache holds all %d rank programs under a %d B limit: nothing was evicted", n, limit)
	}
	// Shrinking the limit evicts immediately.
	setSchedCacheLimit(0)
	if n, bytes := schedCacheStats(); n != 0 || bytes != 0 {
		t.Fatalf("zero limit retains %d entries, %d B", n, bytes)
	}
}

// TestSchedSlicedRejectsBadWorld: the world proof gates construction
// (hypercube at a non-power-of-two world must fail cleanly).
func TestSchedSlicedRejectsBadWorld(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 6}, func(c comm.Comm) error {
		if _, err := New("sched:hypercube", c, 8, Options{}); err == nil {
			return fmt.Errorf("hypercube constructed at 6 ranks")
		} else if !strings.Contains(err.Error(), "power-of-two") {
			return fmt.Errorf("unexpected error: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecCopyErrorAttributable pins the satellite fix: a ChargeCopy
// failure at depth surfaces with the schedule name and round, like every
// sibling executor error path. errComm fails ChargeCopy only.
func TestExecCopyErrorAttributable(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 1}, func(c comm.Comm) error {
		rp, err := sched.GenerateRank("pairwise", 1, 0, nil)
		if err != nil {
			return err
		}
		ex := sched.NewRankExec(rp)
		e := ex.Run(failCopyComm{Comm: c}, comm.Alloc(4), comm.Alloc(4), 4, nil)
		if e == nil {
			return fmt.Errorf("ChargeCopy failure swallowed")
		}
		if !strings.Contains(e.Error(), "pairwise") || !strings.Contains(e.Error(), "round 0") || !strings.Contains(e.Error(), "charge exploded") {
			return fmt.Errorf("copy error not attributable to schedule and round: %v", e)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failCopyComm wraps a communicator so ChargeCopy always fails.
type failCopyComm struct{ comm.Comm }

func (f failCopyComm) ChargeCopy(bytes, blocks int) error {
	return fmt.Errorf("charge exploded")
}
