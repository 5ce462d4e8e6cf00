package sim

import (
	"runtime"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/topo"
)

// maxAllocsPerMessage bounds the simulator's heap allocations per
// simulated message. A message costs its two requests; its flight, its
// stage events and the wakes of the ranks waiting on it are recycled.
const maxAllocsPerMessage = 4

// allocCases are one eager and one rendezvous block size on Dane
// (EagerMax 64 KiB).
var allocCases = []struct {
	name  string
	block int
}{{"eager", 256}, {"rendezvous", 128 << 10}}

// runPairwise simulates `exchanges` pairwise all-to-alls of virtual
// blocks on 4 nodes x 8 ranks of a small Dane-like node.
func runPairwise(tb testing.TB, block, exchanges int) Stats {
	tb.Helper()
	m := netmodel.Dane()
	m.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	cfg := ClusterConfig{Model: m, Nodes: 4, PPN: 8, Seed: 1}
	st, err := RunCluster(cfg, func(c comm.Comm) error {
		a, err := core.New("pairwise", c, block, core.Options{})
		if err != nil {
			return err
		}
		send, recv := comm.Virtual(c.Size()*block), comm.Virtual(c.Size()*block)
		for i := 0; i < exchanges; i++ {
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestAllocsPerMessage pins the per-message allocation cost: the extra
// heap allocations of five exchanges over one, divided by the extra
// messages, so set-up (ranks, communicators, staging) cancels out. Not
// parallel: runtime.MemStats counts every goroutine's allocations.
func TestAllocsPerMessage(t *testing.T) {
	for _, tc := range allocCases {
		measure := func(exchanges int) (uint64, uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := runPairwise(t, tc.block, exchanges)
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, st.Messages
		}
		m1, n1 := measure(1)
		m5, n5 := measure(5)
		if n5 <= n1 {
			t.Fatalf("%s: 5 exchanges sent %d messages, 1 sent %d", tc.name, n5, n1)
		}
		per := float64(int64(m5)-int64(m1)) / float64(n5-n1)
		t.Logf("%s: %.2f allocations per message (%d messages)", tc.name, per, n5-n1)
		if per > maxAllocsPerMessage {
			t.Errorf("%s: %.2f allocations per message, want at most %d", tc.name, per, maxAllocsPerMessage)
		}
	}
}

// BenchmarkPairwiseExchange is TestAllocsPerMessage's exchange as a
// benchmark: one simulated pairwise all-to-all per op, with allocations
// and messages reported per op.
func BenchmarkPairwiseExchange(b *testing.B) {
	for _, bc := range allocCases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs uint64
			for i := 0; i < b.N; i++ {
				msgs += runPairwise(b, bc.block, 1).Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
