package sim

import (
	"runtime"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/topo"
)

// maxAllocsPerMessage bounds the heap allocations per simulated message of
// a blocking call (Send, Recv, Sendrecv, Barrier). Its requests are the
// rank's two slots, and its flight, stage events, wakes, link bookings and
// eager bounce buffer are all recycled, so a message allocates nothing;
// what is left is the algorithm's own per-exchange bookkeeping.
const maxAllocsPerMessage = 0.5

// maxAllocsPerNonblockingMessage bounds Isend/Irecv's: their requests
// escape to the caller, so each message allocates its two.
const maxAllocsPerNonblockingMessage = 2.5

// allocCase is one message path TestAllocsPerMessage pins, on 4 nodes x 8
// ranks of a small Dane-like node (EagerMax 64 KiB).
type allocCase struct {
	name   string
	fabric string
	max    float64
	// start prepares one rank (algorithm, buffers) and returns its
	// exchange, which the run repeats.
	start func(c comm.Comm) (func() error, error)
}

// alltoall returns an allocCase start running algo over block-byte blocks
// in buffers made by buf (comm.Virtual, or comm.Alloc for real bytes).
func alltoall(algo string, block int, buf func(int) comm.Buffer) func(comm.Comm) (func() error, error) {
	return func(c comm.Comm) (func() error, error) {
		a, err := core.New(algo, c, block, core.Options{})
		if err != nil {
			return nil, err
		}
		send, recv := buf(c.Size()*block), buf(c.Size()*block)
		return func() error { return a.Alltoall(send, recv, block) }, nil
	}
}

// pingPong pairs rank 2i with 2i+1: a Send and a Recv each way.
func pingPong(c comm.Comm) (func() error, error) {
	b := comm.Virtual(256)
	peer := c.Rank() ^ 1
	return func() error {
		if c.Rank()%2 == 0 {
			if err := c.Send(b, peer, 0); err != nil {
				return err
			}
			return c.Recv(b, peer, 0)
		}
		if err := c.Recv(b, peer, 0); err != nil {
			return err
		}
		return c.Send(b, peer, 0)
	}, nil
}

func barrier(c comm.Comm) (func() error, error) { return c.Barrier, nil }

var allocCases = []allocCase{
	{name: "pairwise/eager", max: maxAllocsPerMessage, start: alltoall("pairwise", 256, comm.Virtual)},
	{name: "pairwise/rendezvous", max: maxAllocsPerMessage, start: alltoall("pairwise", 128<<10, comm.Virtual)},
	{name: "pairwise/ring", fabric: "ring", max: maxAllocsPerMessage, start: alltoall("pairwise", 16<<10, comm.Virtual)},
	{name: "pairwise/real", max: maxAllocsPerMessage, start: alltoall("pairwise", 256, comm.Alloc)},
	{name: "send-recv", max: maxAllocsPerMessage, start: pingPong},
	{name: "barrier", max: maxAllocsPerMessage, start: barrier},
	{name: "nonblocking", max: maxAllocsPerNonblockingMessage, start: alltoall("nonblocking", 256, comm.Virtual)},
}

// run simulates `exchanges` exchanges of the case.
func (ac allocCase) run(tb testing.TB, exchanges int) Stats {
	tb.Helper()
	m := netmodel.Dane()
	m.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	cfg := ClusterConfig{Model: m, Nodes: 4, PPN: 8, Seed: 1, Fabric: ac.fabric}
	st, err := RunCluster(cfg, func(c comm.Comm) error {
		exchange, err := ac.start(c)
		if err != nil {
			return err
		}
		for i := 0; i < exchanges; i++ {
			if err := exchange(); err != nil {
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

// TestAllocsPerMessage pins the per-message allocation cost of each
// message path: the extra heap allocations of five exchanges over one,
// divided by the extra messages, so set-up (ranks, communicators, staging)
// cancels out. Not parallel: runtime.MemStats counts every goroutine's
// allocations.
func TestAllocsPerMessage(t *testing.T) {
	for _, tc := range allocCases {
		measure := func(exchanges int) (uint64, uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := tc.run(t, exchanges)
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
		if per > tc.max {
			t.Errorf("%s: %.2f allocations per message, want at most %g", tc.name, per, tc.max)
		}
	}
}

// BenchmarkPairwiseExchange runs TestAllocsPerMessage's pairwise cases as
// benchmarks: one simulated all-to-all per op, with allocations and
// messages reported per op.
func BenchmarkPairwiseExchange(b *testing.B) {
	for _, bc := range allocCases {
		if !strings.HasPrefix(bc.name, "pairwise/") {
			continue
		}
		b.Run(strings.TrimPrefix(bc.name, "pairwise/"), func(b *testing.B) {
			b.ReportAllocs()
			var msgs uint64
			for i := 0; i < b.N; i++ {
				msgs += bc.run(b, 1).Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
