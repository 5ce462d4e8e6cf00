package collx

import (
	"errors"
	"fmt"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/testutil"
)

// startBoth runs body on the live runtime and under the simulator: the
// collx Start wrapper shares core's handle machinery, but has its own
// Start signature, so both substrates are exercised here too.
func startBoth(t *testing.T, body func(c comm.Comm) error) {
	t.Helper()
	m := registryMapping(t)
	if err := runtime.Run(runtime.Config{Mapping: m}, body); err != nil {
		t.Errorf("live: %v", err)
	}
	cfg := sim.ClusterConfig{Model: netmodel.Dane(), Nodes: 2, PPN: 8, Seed: 1}
	if _, err := sim.RunCluster(cfg, body); err != nil {
		t.Errorf("sim: %v", err)
	}
}

// TestAllgatherStart verifies Start/Wait equivalence, the pending rule
// and WaitAll for the allgather operation.
func TestAllgatherStart(t *testing.T) {
	const block = 6
	startBoth(t, func(c comm.Comm) error {
		p, r := c.Size(), c.Rank()
		a, err := NewAllgather("ring", c, core.Options{})
		if err != nil {
			return err
		}
		send := comm.Alloc(block)
		recv := comm.Alloc(p * block)
		testutil.FillBlock(send, r, 0)
		h, err := a.Start(send, recv, block)
		if err != nil {
			return err
		}
		if _, err := a.Start(send, recv, block); !errors.Is(err, core.ErrPending) {
			return fmt.Errorf("second allgather Start while pending: got %v, want ErrPending", err)
		}
		if err := core.WaitAll([]core.Handle{nil, h}); err != nil {
			return err
		}
		for s := 0; s < p; s++ {
			if err := testutil.CheckBlock(recv.Slice(s*block, block), s, 0); err != nil {
				return err
			}
		}
		return nil
	})
}
