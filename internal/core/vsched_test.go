package core

import (
	"fmt"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/trace"
)

// vSchedAlgos are the schedule-backed alltoallv registry entries.
var vSchedAlgos = []string{"sched:direct", "sched:pairwise"}

// TestVSchedLive: the sched-backed alltoallv algorithms deliver the
// standard skewed pattern (zero pairs, one silent rank) on the live
// runtime, through the shared vBody (twice per instance — the second
// call takes the memoized-compile path).
func TestVSchedLive(t *testing.T) {
	t.Parallel()
	for _, algo := range vSchedAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			err := runtime.Run(runtime.Config{Ranks: 6},
				vBody(algo, Options{}, skewedCount, 0))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVSchedSimulated: the same bodies under the discrete-event
// simulator with real payloads.
func TestVSchedSimulated(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	for _, algo := range vSchedAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			cfg := sim.ClusterConfig{Model: model, Nodes: 2, PPN: 8, Seed: 3}
			if _, err := sim.RunCluster(cfg, vBody(algo, Options{}, skewedCount, 0)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVSchedRecompile: one persistent instance serves different count
// matrices across calls — the compile memo must miss and rebuild when
// the counts change, and both patterns must verify and deliver.
func TestVSchedRecompile(t *testing.T) {
	t.Parallel()
	altCount := func(src, dst int) int { return (src*3+dst)%5 + 1 }
	err := runtime.Run(runtime.Config{Ranks: 5}, func(c comm.Comm) error {
		p, r := c.Size(), c.Rank()
		mt := globalMaxTotal(p, skewedCount)
		if v := globalMaxTotal(p, altCount); v > mt {
			mt = v
		}
		a, err := NewV("sched:pairwise", c, mt, Options{})
		if err != nil {
			return err
		}
		for _, count := range []func(src, dst int) int{skewedCount, altCount, skewedCount} {
			sc, rc := countsFor(p, r, count)
			sdispls, sTotal := DisplsFromCounts(sc)
			rdispls, rTotal := DisplsFromCounts(rc)
			send := comm.Alloc(sTotal)
			recv := comm.Alloc(rTotal)
			for i := 0; i < p; i++ {
				for k := 0; k < sc[i]; k++ {
					send.Bytes()[sdispls[i]+k] = byte(r*89+i*17+k) ^ 0x5A
				}
			}
			if err := a.Alltoallv(send, sc, sdispls, recv, rc, rdispls); err != nil {
				return err
			}
			for i := 0; i < p; i++ {
				for k := 0; k < rc[i]; k++ {
					if got, want := recv.Bytes()[rdispls[i]+k], byte(i*89+r*17+k)^0x5A; got != want {
						return fmt.Errorf("byte %d of %d->%d: got %#x, want %#x", k, i, r, got, want)
					}
				}
			}
		}
		if ph := a.Phases(); ph[trace.PhaseTotal] <= 0 {
			return fmt.Errorf("no total phase recorded: %v", ph)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVSchedAsymmetricCountsDetected: the counts allgather cross-check
// rejects declarations where receivers disagree with their senders,
// before any payload moves. Every rank under-declares its receives so
// every rank rejects locally (a lone detector would leave the other
// ranks blocked in the exchange — exactly the deadlock the check
// front-runs).
func TestVSchedAsymmetricCountsDetected(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 4}, func(c comm.Comm) error {
		p, r := c.Size(), c.Rank()
		sc, _ := countsFor(p, r, func(int, int) int { return 4 })
		rc := make([]int, p)
		for i := range rc {
			rc[i] = 3 // everyone under-declares every receive
		}
		sdispls, sTotal := DisplsFromCounts(sc)
		rdispls, rTotal := DisplsFromCounts(rc)
		a, err := NewV("sched:direct", c, sTotal, Options{})
		if err != nil {
			return err
		}
		err = a.Alltoallv(comm.Alloc(sTotal), sc, sdispls, comm.Alloc(rTotal), rc, rdispls)
		if err == nil {
			return fmt.Errorf("asymmetric counts accepted")
		}
		if !strings.Contains(err.Error(), "asymmetric") {
			return fmt.Errorf("error does not name the asymmetry: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVSchedWorldCap: construction is rejected above
// MatrixProofMaxRanks — a world proof per count matrix does not scale
// past it.
func TestVSchedWorldCap(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: MatrixProofMaxRanks + 2}, func(c comm.Comm) error {
		_, err := NewV("sched:pairwise", c, 8, Options{})
		if err == nil {
			return fmt.Errorf("sched:pairwise accepted %d ranks", c.Size())
		}
		if !strings.Contains(err.Error(), "not supported") {
			return fmt.Errorf("cap error: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
