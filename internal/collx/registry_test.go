package collx

import (
	"fmt"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

func registryMapping(t *testing.T) *topo.Mapping {
	t.Helper()
	m, err := topo.NewMapping(topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAllgatherRegistry runs every registered allgather twice through one
// persistent instance and verifies the gathered pattern and the phase
// timer.
func TestAllgatherRegistry(t *testing.T) {
	t.Parallel()
	m := registryMapping(t)
	const block = 6
	for _, name := range AllgatherNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
				p, r := c.Size(), c.Rank()
				a, err := NewAllgather(name, c, core.Options{})
				if err != nil {
					return err
				}
				if a.Name() != name {
					return fmt.Errorf("Name() = %q, want %q", a.Name(), name)
				}
				send := comm.Alloc(block)
				recv := comm.Alloc(p * block)
				testutil.FillBlock(send, r, 0)
				for iter := 0; iter < 2; iter++ {
					if err := a.Allgather(send, recv, block); err != nil {
						return fmt.Errorf("iter %d: %w", iter, err)
					}
					for s := 0; s < p; s++ {
						if err := testutil.CheckBlock(recv.Slice(s*block, block), s, 0); err != nil {
							return fmt.Errorf("iter %d block %d: %w", iter, s, err)
						}
					}
				}
				if len(a.Phases()) == 0 {
					return fmt.Errorf("no phases recorded")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegistryUnknownNames: the constructor rejects unknown names and
// lists the registry contents.
func TestRegistryUnknownNames(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		if _, err := NewAllgather("no-such", c, core.Options{}); err == nil {
			return fmt.Errorf("unknown allgather accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
