package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/testutil"
)

// runBoth executes the same SPMD body on the live runtime (real payloads)
// and under the simulator (same body; buffers stay real so results remain
// checkable), so every handle-semantics test covers both substrates.
func runBoth(t *testing.T, nodes, ppn int, body func(c comm.Comm) error) {
	t.Helper()
	m := mapping(t, nodes, ppn)
	if err := runtime.Run(runtime.Config{Mapping: m}, body); err != nil {
		t.Errorf("live: %v", err)
	}
	cfg := sim.ClusterConfig{Model: netmodel.Dane(), Nodes: nodes, PPN: ppn, Seed: 1}
	if _, err := sim.RunCluster(cfg, body); err != nil {
		t.Errorf("sim: %v", err)
	}
}

// TestStartWaitCorrectness proves Start+Wait moves the same data as the
// blocking call for a flat and a topology-aware algorithm.
func TestStartWaitCorrectness(t *testing.T) {
	const block = 32
	for _, algo := range []string{"pairwise", "node-aware"} {
		t.Run(algo, func(t *testing.T) {
			runBoth(t, 2, 4, func(c comm.Comm) error {
				p, rank := c.Size(), c.Rank()
				a, err := New(algo, c, block, Options{})
				if err != nil {
					return err
				}
				send := comm.Alloc(p * block)
				recv := comm.Alloc(p * block)
				testutil.FillAlltoall(send, rank, p, block)
				for iter := 0; iter < 2; iter++ { // handles are reusable per exchange
					h, err := a.Start(send, recv, block)
					if err != nil {
						return err
					}
					if err := h.Wait(); err != nil {
						return err
					}
					if err := testutil.CheckAlltoall(recv, rank, p, block); err != nil {
						return fmt.Errorf("iter %d: %w", iter, err)
					}
				}
				return nil
			})
		})
	}
}

// TestHandleDoubleWaitAndTestAfterCompletion: Wait is idempotent and Test
// keeps reporting done after completion.
func TestHandleDoubleWaitAndTestAfterCompletion(t *testing.T) {
	const block = 16
	runBoth(t, 1, 4, func(c comm.Comm) error {
		a, err := New("pairwise", c, block, Options{})
		if err != nil {
			return err
		}
		send := comm.Alloc(c.Size() * block)
		recv := comm.Alloc(c.Size() * block)
		h, err := a.Start(send, recv, block)
		if err != nil {
			return err
		}
		if err := h.Wait(); err != nil {
			return err
		}
		if err := h.Wait(); err != nil { // second Wait: inactive-request no-op
			return fmt.Errorf("double Wait: %w", err)
		}
		for i := 0; i < 2; i++ {
			done, err := h.Test()
			if !done {
				return fmt.Errorf("Test %d after completion: done=false", i)
			}
			if err != nil {
				return fmt.Errorf("Test %d after completion: %w", i, err)
			}
		}
		return nil
	})
}

// TestStartWhilePending: starting a second exchange on an operation whose
// handle is outstanding must fail with ErrPending (MPI persistent-request
// semantics), and completing the handle re-arms the operation.
func TestStartWhilePending(t *testing.T) {
	const block = 16
	runBoth(t, 1, 4, func(c comm.Comm) error {
		a, err := New("pairwise", c, block, Options{})
		if err != nil {
			return err
		}
		send := comm.Alloc(c.Size() * block)
		recv := comm.Alloc(c.Size() * block)
		h, err := a.Start(send, recv, block)
		if err != nil {
			return err
		}
		if _, err := a.Start(send, recv, block); !errors.Is(err, ErrPending) {
			return fmt.Errorf("second Start while pending: got %v, want ErrPending", err)
		}
		// The blocking shim is Start+Wait, so it must refuse too.
		if err := a.Alltoall(send, recv, block); !errors.Is(err, ErrPending) {
			return fmt.Errorf("Alltoall while pending: got %v, want ErrPending", err)
		}
		if err := h.Wait(); err != nil {
			return err
		}
		// Completed handle re-arms the operation.
		h2, err := a.Start(send, recv, block)
		if err != nil {
			return fmt.Errorf("Start after Wait: %w", err)
		}
		return h2.Wait()
	})
}

// TestStartWhilePendingV covers the same rule for the alltoallv
// interface (the opState machinery is shared, but the Start wrappers are
// per-operation).
func TestStartWhilePendingV(t *testing.T) {
	runBoth(t, 1, 4, func(c comm.Comm) error {
		p := c.Size()
		a, err := NewV("pairwise", c, p*8, Options{})
		if err != nil {
			return err
		}
		counts := make([]int, p)
		for i := range counts {
			counts[i] = 8
		}
		displs, total := DisplsFromCounts(counts)
		send, recv := comm.Alloc(total), comm.Alloc(total)
		h, err := a.Start(send, counts, displs, recv, counts, displs)
		if err != nil {
			return err
		}
		if _, err := a.Start(send, counts, displs, recv, counts, displs); !errors.Is(err, ErrPending) {
			return fmt.Errorf("second v-Start while pending: got %v, want ErrPending", err)
		}
		return h.Wait()
	})
}

// TestWaitAllNilHandles: nil entries are ignored like MPI_REQUEST_NULL,
// and errors of the rest are joined.
func TestWaitAllNilHandles(t *testing.T) {
	if err := WaitAll(nil); err != nil {
		t.Errorf("WaitAll(nil): %v", err)
	}
	if err := WaitAll([]Handle{nil, nil}); err != nil {
		t.Errorf("WaitAll all-nil: %v", err)
	}
	const block = 16
	runBoth(t, 1, 4, func(c comm.Comm) error {
		a, err := New("pairwise", c, block, Options{})
		if err != nil {
			return err
		}
		b, err := New("nonblocking", c, block, Options{})
		if err != nil {
			return err
		}
		send := comm.Alloc(c.Size() * block)
		recv := comm.Alloc(c.Size() * block)
		recv2 := comm.Alloc(c.Size() * block)
		h1, err := a.Start(send, recv, block)
		if err != nil {
			return err
		}
		h2, err := b.Start(send, recv2, block)
		if err != nil {
			return err
		}
		return WaitAll([]Handle{nil, h1, nil, h2})
	})
}

// TestLiveOverlap demonstrates a Start -> compute -> Wait sequence on the
// live runtime with provably nonzero overlap: rank 1 withholds its half
// of the exchange until rank 0 has already computed, so rank 0's Test
// must observe the exchange in flight while its compute runs — the
// exchange cannot have completed before the compute did.
func TestLiveOverlap(t *testing.T) {
	const block = 64
	m := mapping(t, 1, 2)
	release := make(chan struct{})
	var sawInFlight atomic.Bool
	var computed atomic.Int64
	body := func(c comm.Comm) error {
		p, rank := c.Size(), c.Rank()
		a, err := New("pairwise", c, block, Options{})
		if err != nil {
			return err
		}
		send := comm.Alloc(p * block)
		recv := comm.Alloc(p * block)
		testutil.FillAlltoall(send, rank, p, block)
		if rank == 1 {
			<-release // enter the exchange only after rank 0's compute
			return func() error {
				if err := a.Alltoall(send, recv, block); err != nil {
					return err
				}
				return testutil.CheckAlltoall(recv, rank, p, block)
			}()
		}
		h, err := a.Start(send, recv, block)
		if err != nil {
			return err
		}
		done, err := h.Test()
		if err != nil {
			return err
		}
		if !done {
			sawInFlight.Store(true)
		}
		// Real compute, overlapped with the pending exchange (rank 1 has
		// not entered it yet, so it cannot have completed).
		sum := int64(0)
		for i := 0; i < 1_000_00; i++ {
			sum += int64(i % 7)
		}
		computed.Store(sum)
		close(release)
		if err := h.Wait(); err != nil {
			return err
		}
		if err := c.Compute(0.001); err != nil { // live Compute: validating no-op
			return err
		}
		return testutil.CheckAlltoall(recv, rank, p, block)
	}
	if err := runtime.Run(runtime.Config{Mapping: m}, body); err != nil {
		t.Fatal(err)
	}
	if !sawInFlight.Load() {
		t.Error("Test never observed the exchange in flight: no overlap demonstrated")
	}
	if computed.Load() == 0 {
		t.Error("compute did not run")
	}
}

// TestStartErrorSurfacesAtWait: an exchange failure inside the started
// body is reported by Wait (and again by later Waits), not lost.
func TestStartErrorSurfacesAtWait(t *testing.T) {
	const block = 16
	runBoth(t, 1, 2, func(c comm.Comm) error {
		a, err := New("pairwise", c, block, Options{})
		if err != nil {
			return err
		}
		// recv shorter than the exchange needs: checkArgs catches this at
		// Start, eagerly on the caller.
		send := comm.Alloc(c.Size() * block)
		short := comm.Alloc(block - 1)
		if _, err := a.Start(send, short, block); err == nil {
			return fmt.Errorf("Start with short recv: no error")
		}
		// A second exchange must be startable after the failed Start (no
		// handle was issued).
		recv := comm.Alloc(c.Size() * block)
		h, err := a.Start(send, recv, block)
		if err != nil {
			return err
		}
		return h.Wait()
	})
}

// TestPhasesDefensiveCopy: mutating the map returned by Phases must not
// corrupt the operation's recorded timings — across the basic, leadered
// and dispatching operation kinds.
func TestPhasesDefensiveCopy(t *testing.T) {
	const block = 32
	runBoth(t, 2, 4, func(c comm.Comm) error {
		for _, algo := range []string{"pairwise", "node-aware", "multileader-node-aware"} {
			a, err := New(algo, c, block, Options{})
			if err != nil {
				return err
			}
			send := comm.Alloc(c.Size() * block)
			recv := comm.Alloc(c.Size() * block)
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
			first := a.Phases()
			for k := range first {
				first[k] = -42 // attempt to corrupt
			}
			for k, v := range a.Phases() {
				if v == -42 {
					return fmt.Errorf("%s: Phases()[%s] corrupted through the returned map", algo, k)
				}
			}
		}
		return nil
	})
}
