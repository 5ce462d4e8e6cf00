package collx

import (
	"fmt"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
)

func tinyMapping(t *testing.T, nodes, ppn int) *topo.Mapping {
	t.Helper()
	m, err := topo.NewMapping(topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkAllgather verifies recv holds every rank's pattern block.
func checkAllgather(recv comm.Buffer, p, block int) error {
	for r := 0; r < p; r++ {
		for i := 0; i < block; i++ {
			want := byte(r*13 + i)
			if got := recv.Bytes()[r*block+i]; got != want {
				return fmt.Errorf("allgather block %d byte %d: got %d, want %d", r, i, got, want)
			}
		}
	}
	return nil
}

func TestAllgatherFlat(t *testing.T) {
	t.Parallel()
	for _, algo := range []string{"ring", "bruck"} {
		for _, n := range []int{1, 2, 3, 7, 8, 12} {
			algo, n := algo, n
			t.Run(fmt.Sprintf("%s/n%d", algo, n), func(t *testing.T) {
				t.Parallel()
				const block = 5
				err := runtime.Run(runtime.Config{Ranks: n}, func(c comm.Comm) error {
					send := comm.Alloc(block)
					for i := range send.Bytes() {
						send.Bytes()[i] = byte(c.Rank()*13 + i)
					}
					recv := comm.Alloc(n * block)
					var err error
					if algo == "ring" {
						err = AllgatherRing(c, send, recv, block)
					} else {
						err = AllgatherBruck(c, send, recv, block)
					}
					if err != nil {
						return err
					}
					return checkAllgather(recv, n, block)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestNodeAwareAllgather(t *testing.T) {
	t.Parallel()
	const block = 6
	m := tinyMapping(t, 3, 8)
	err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		na, err := NewNodeAware(c)
		if err != nil {
			return err
		}
		p := c.Size()
		send := comm.Alloc(block)
		for i := range send.Bytes() {
			send.Bytes()[i] = byte(c.Rank()*13 + i)
		}
		recv := comm.Alloc(p * block)
		for iter := 0; iter < 2; iter++ { // persistent reuse
			if err := na.Allgather(send, recv, block); err != nil {
				return err
			}
			if err := checkAllgather(recv, p, block); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeAwareBcast(t *testing.T) {
	t.Parallel()
	for _, root := range []int{0, 5, 12} {
		root := root
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			t.Parallel()
			m := tinyMapping(t, 2, 8)
			err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
				na, err := NewNodeAware(c)
				if err != nil {
					return err
				}
				b := comm.Alloc(24)
				if c.Rank() == root {
					for i := range b.Bytes() {
						b.Bytes()[i] = byte(root*7 + i)
					}
				}
				if err := na.Bcast(root, b); err != nil {
					return err
				}
				for i := range b.Bytes() {
					if b.Bytes()[i] != byte(root*7+i) {
						return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, b.Bytes()[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNodeAwareUnderSimulation: the extensions run under the simulator
// with virtual buffers (the mode a capability-scale study would use).
func TestNodeAwareUnderSimulation(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	cfg := sim.ClusterConfig{Model: model, Nodes: 4, PPN: 8, Seed: 5}
	stats, err := sim.RunCluster(cfg, func(c comm.Comm) error {
		na, err := NewNodeAware(c)
		if err != nil {
			return err
		}
		const block = 256
		if err := na.Allgather(comm.Virtual(block), comm.Virtual(c.Size()*block), block); err != nil {
			return err
		}
		return na.Bcast(0, comm.Virtual(4096))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VirtualSeconds <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestErrors(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		if err := AllgatherRing(c, comm.Alloc(4), comm.Alloc(4), 4); err == nil {
			return fmt.Errorf("short allgather recv accepted")
		}
		if err := AllgatherBruck(c, comm.Alloc(4), comm.Alloc(16), 0); err == nil {
			return fmt.Errorf("zero block accepted")
		}
		if _, err := NewNodeAware(c); err == nil {
			return fmt.Errorf("topology-less NewNodeAware accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
