package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

// TestFlowSingleFlowMatchesAnalytic is the equivalence oracle: with the
// flow level enabled but only one sender streaming, the fabric links are
// uncontended cut-through stages and the run must reproduce the analytic
// cost exactly (1e-9 relative). Randomized over the three machines, all
// fabric kinds, message sizes spanning the eager/rendezvous crossover,
// node distances, and intra-node traffic. This also pins the
// no-extra-randomness property: an uncontended link admission schedules
// no events and draws no noise, so the two runs see bit-identical
// noise streams.
func TestFlowSingleFlowMatchesAnalytic(t *testing.T) {
	t.Parallel()
	machines := []netmodel.Params{netmodel.Dane(), netmodel.Amber(), netmodel.Tuolomne()}
	rng := rand.New(rand.NewSource(42))
	const nodes = 8
	for _, m := range machines {
		for _, fabric := range topo.FabricKinds() {
			for trial := 0; trial < 8; trial++ {
				ppn := 1 + rng.Intn(4)
				var bytes int
				switch trial % 4 {
				case 0: // eager
					bytes = 1 + rng.Intn(m.EagerMax)
				case 1: // rendezvous
					bytes = m.EagerMax + 1 + rng.Intn(1<<16)
				case 2: // crossover boundary
					bytes = m.EagerMax
				case 3: // just past the boundary
					bytes = m.EagerMax + 1
				}
				srcNode := rng.Intn(nodes)
				dstNode := (srcNode + 1 + rng.Intn(nodes-1)) % nodes
				if trial == 5 && ppn > 1 {
					dstNode = srcNode // intra-node: the fabric is not touched
				}
				src := srcNode*ppn + rng.Intn(ppn)
				dst := dstNode*ppn + rng.Intn(ppn)
				if src == dst {
					dst = srcNode*ppn + (dst-srcNode*ppn+1)%ppn
				}
				msgs := 1 + rng.Intn(3)
				seed := rng.Int63()
				run := func(fab string) Stats {
					t.Helper()
					cfg := ClusterConfig{Model: m, Nodes: nodes, PPN: ppn, Seed: seed, Fabric: fab}
					st, err := RunCluster(cfg, func(c comm.Comm) error {
						b := comm.Virtual(bytes)
						for k := 0; k < msgs; k++ {
							switch c.Rank() {
							case src:
								if err := c.Send(b, dst, 10+k); err != nil {
									return err
								}
							case dst:
								if err := c.Recv(b, src, 10+k); err != nil {
									return err
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s/%s trial %d: %v", m.Name, fab, trial, err)
					}
					return st
				}
				base := run("")
				flow := run(fabric)
				rel := math.Abs(flow.VirtualSeconds-base.VirtualSeconds) / base.VirtualSeconds
				if rel > 1e-9 {
					t.Errorf("%s/%s trial %d (%dB x%d, node %d->%d): analytic %.12g s, flow %.12g s (rel %.3g)",
						m.Name, fabric, trial, bytes, msgs, srcNode, dstNode,
						base.VirtualSeconds, flow.VirtualSeconds, rel)
				}
				if flow.LinkBlockedSeconds != 0 || flow.LinkQueuedSeconds != 0 {
					t.Errorf("%s/%s trial %d: single flow saw contention (blocked %g, queued %g)",
						m.Name, fabric, trial, flow.LinkBlockedSeconds, flow.LinkQueuedSeconds)
				}
				if flow.Messages != base.Messages {
					t.Errorf("%s/%s trial %d: message counts diverge (%d vs %d)",
						m.Name, fabric, trial, flow.Messages, base.Messages)
				}
			}
		}
	}
}

// TestFlowContentionAddsTime pins the contention mechanism itself: two
// flows to *different* destination nodes whose ring routes share the link
// 1->2 (0->2 goes 0->1->2, 1->3 goes 1->2->3) must pay queueing there and
// finish measurably later than the analytic model, which sees two
// independent NIC pairs and no shared resource at all.
func TestFlowContentionAddsTime(t *testing.T) {
	t.Parallel()
	m := netmodel.Dane()
	const (
		block = 1 << 18
		msgs  = 4
	)
	// All messages are posted up front (nonblocking) so each sender
	// streams through its NIC back-to-back — the two flows hit the shared
	// link at twice its drain rate instead of self-throttling.
	body := func(c comm.Comm) error {
		b := comm.Virtual(block)
		var reqs []comm.Request
		for k := 0; k < msgs; k++ {
			var req comm.Request
			var err error
			switch c.Rank() {
			case 0:
				req, err = c.Isend(b, 2, 20+k)
			case 1:
				req, err = c.Isend(b, 3, 20+k)
			case 2:
				req, err = c.Irecv(b, 0, 20+k)
			case 3:
				req, err = c.Irecv(b, 1, 20+k)
			}
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		return c.WaitAll(reqs)
	}
	cfg := ClusterConfig{Model: m, Nodes: 4, PPN: 1, Seed: 5}
	base, err := RunCluster(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fabric = "ring"
	flow, err := RunCluster(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	if flow.LinkQueuedSeconds+flow.LinkBlockedSeconds <= 0 {
		t.Errorf("converging flows saw no contention (queued %g, blocked %g)",
			flow.LinkQueuedSeconds, flow.LinkBlockedSeconds)
	}
	// Both flows squeeze through one link at FabricLinkBW while the NICs
	// could inject at 2x that aggregate; the makespan must grow well past
	// noise (the refinement also forbids it shrinking).
	if flow.VirtualSeconds < base.VirtualSeconds*1.2 {
		t.Errorf("shared-link contention did not slow the run: analytic %.6g s, flow %.6g s",
			base.VirtualSeconds, flow.VirtualSeconds)
	}
}

// TestFlowConservationFuzz fuzzes verified schedules through the flow
// level and asserts the conservation invariants: every link drains every
// byte it enqueued, all queues are empty by the end of the run, and the
// per-round (per-tag) congestion attribution sums to the per-link totals
// the Stats counters report. Runs under -race in CI.
func TestFlowConservationFuzz(t *testing.T) {
	t.Parallel()
	type trial struct {
		gen        string
		fabric     string
		nodes, ppn int
		block      int
		queue      int // FabricQueueBytes override; 0 keeps the preset
	}
	rng := rand.New(rand.NewSource(99))
	gens := []string{"direct", "pairwise", "bruck", "ring", "torus", "hypercube"}
	trials := []trial{
		// Deliberate heavy cases: tiny queues + bulk blocks force
		// backpressure; direct floods every link at once.
		{gen: "direct", fabric: "ring", nodes: 8, ppn: 2, block: 1 << 16, queue: 8192},
		{gen: "pairwise", fabric: "torus", nodes: 8, ppn: 2, block: 1 << 15, queue: 4096},
		{gen: "bruck", fabric: "hypercube", nodes: 8, ppn: 1, block: 1 << 14, queue: 4096},
	}
	for i := 0; i < 9; i++ {
		trials = append(trials, trial{
			gen:    gens[rng.Intn(len(gens))],
			fabric: topo.FabricKinds()[rng.Intn(3)],
			nodes:  []int{2, 4, 8}[rng.Intn(3)],
			ppn:    []int{1, 2, 4}[rng.Intn(3)],
			block:  1 << (6 + rng.Intn(10)),
			queue:  []int{0, 16384}[rng.Intn(2)],
		})
	}
	var sawQueued, sawBlocked bool
	for ti, tr := range trials {
		m := netmodel.Dane()
		if tr.queue > 0 {
			m.FabricQueueBytes = tr.queue
		}
		p := tr.nodes * tr.ppn
		mapping, err := topo.NewMapping(m.Node, tr.nodes, tr.ppn)
		if err != nil {
			t.Fatal(err)
		}
		world, err := sched.GenerateWorld(tr.gen, p, mapping)
		if err != nil {
			t.Fatalf("trial %d: %v", ti, err)
		}
		if err := sched.VerifyWorld(world); err != nil {
			t.Fatalf("trial %d: generated schedule fails verification: %v", ti, err)
		}
		cfg := ClusterConfig{Model: m, Nodes: tr.nodes, PPN: tr.ppn, Seed: int64(ti + 1), Fabric: tr.fabric}
		var rep *FlowReport
		st, err := RunClusterDebug(cfg, func(c comm.Comm) error {
			ex := sched.NewRankExec(world[c.Rank()])
			send := comm.Virtual(p * tr.block)
			recv := comm.Virtual(p * tr.block)
			return ex.Run(c, send, recv, tr.block, nil)
		}, func(net *Network, final float64) {
			// Pre-report, with access to the live queues: everything still
			// booked must have finished serializing by the end of the run —
			// the queues are only lazily drained, never actually occupied
			// past the last flow.
			eps := 1e-9 * (1 + final)
			for li := range net.flow.links {
				l := &net.flow.links[li]
				if l.nextFree > final+eps {
					t.Errorf("trial %d: link %d->%d busy until %.9g, past run end %.9g",
						ti, l.from, l.to, l.nextFree, final)
				}
				for _, b := range l.queue.live() {
					if b.finish > final+eps {
						t.Errorf("trial %d: link %d->%d holds a booking finishing at %.9g, past run end %.9g",
							ti, l.from, l.to, b.finish, final)
					}
				}
			}
			rep = net.FlowReport()
		})
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", ti, tr, err)
		}
		if rep == nil {
			t.Fatalf("trial %d: no flow report despite fabric %q", ti, tr.fabric)
		}
		var linkBlocked, linkQueued float64
		for _, l := range rep.Links {
			if l.BytesEnqueued != l.BytesDrained {
				t.Errorf("trial %d: link %d->%d enqueued %d B but drained %d B",
					ti, l.From, l.To, l.BytesEnqueued, l.BytesDrained)
			}
			linkBlocked += l.BlockedSeconds
			linkQueued += l.QueuedSeconds
		}
		var roundBlocked, roundQueued float64
		for tag, rc := range rep.Rounds {
			if tag < sched.TagBase || tag >= sched.TagBase+len(world[0].Rounds) {
				t.Errorf("trial %d: congestion attributed to tag %d outside the schedule's rounds", ti, tag)
			}
			roundBlocked += rc.BlockedSeconds
			roundQueued += rc.QueuedSeconds
		}
		close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }
		if !close(roundBlocked, linkBlocked) || !close(roundBlocked, st.LinkBlockedSeconds) {
			t.Errorf("trial %d: blocked time disagrees: rounds %.12g, links %.12g, stats %.12g",
				ti, roundBlocked, linkBlocked, st.LinkBlockedSeconds)
		}
		if !close(roundQueued, linkQueued) || !close(roundQueued, st.LinkQueuedSeconds) {
			t.Errorf("trial %d: queued time disagrees: rounds %.12g, links %.12g, stats %.12g",
				ti, roundQueued, linkQueued, st.LinkQueuedSeconds)
		}
		sawQueued = sawQueued || linkQueued > 0
		sawBlocked = sawBlocked || linkBlocked > 0
	}
	if !sawQueued || !sawBlocked {
		t.Errorf("fuzz never exercised contention (queued seen: %v, blocked seen: %v)", sawQueued, sawBlocked)
	}
}

// TestFlowConfigFailFast pins the flow level's error paths: a fabric on a
// model without link parameters, an unknown fabric kind, and a hypercube
// over a non-power-of-two node count are all rejected before any rank
// spawns.
func TestFlowConfigFailFast(t *testing.T) {
	t.Parallel()
	noop := func(c comm.Comm) error { return nil }
	cases := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"no link params", ClusterConfig{Model: cleanModel(), Nodes: 4, PPN: 2, Fabric: "ring"}},
		{"unknown kind", ClusterConfig{Model: netmodel.Dane(), Nodes: 4, PPN: 2, Fabric: "mesh"}},
		{"odd hypercube", ClusterConfig{Model: netmodel.Dane(), Nodes: 6, PPN: 2, Fabric: "hypercube"}},
	}
	for _, c := range cases {
		if _, err := RunCluster(c.cfg, noop); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if testing.Verbose() {
			fmt.Printf("%s: %v\n", c.name, err)
		}
	}
}

// live returns the queue's undrained bookings, oldest first.
func (q *bookingQueue) live() []linkBooking {
	out := make([]linkBooking, q.n)
	for i := range out {
		out[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	return out
}

// sliceLink is flowLink with the slice FIFO it had before its ring buffer
// (pop by reslicing, push by append): the reference
// TestFlowLinkRingMatchesSlice holds the ring to.
type sliceLink struct {
	rate        float64
	depth       int
	nextFree    float64
	queue       []linkBooking
	queuedBytes int
	stats       LinkStats
}

func (l *sliceLink) drain(t float64) {
	for len(l.queue) > 0 && l.queue[0].finish <= t {
		b := l.queue[0]
		l.queue = l.queue[1:]
		l.queuedBytes -= b.bytes
		l.stats.BytesDrained += int64(b.bytes)
	}
}

func (l *sliceLink) admit(ready float64, bytes int) (start, blocked, queued float64) {
	l.drain(ready)
	admission := ready
	for l.queuedBytes+bytes > l.depth && len(l.queue) > 0 {
		b := l.queue[0]
		l.queue = l.queue[1:]
		l.queuedBytes -= b.bytes
		l.stats.BytesDrained += int64(b.bytes)
		if b.finish > admission {
			admission = b.finish
		}
	}
	blocked = admission - ready
	start = admission
	if l.nextFree > start {
		start = l.nextFree
	}
	queued = start - admission
	var dur float64
	if bytes > 0 {
		dur = float64(bytes) / l.rate
	}
	l.nextFree = start + dur
	l.queue = append(l.queue, linkBooking{finish: start + dur, bytes: bytes})
	l.queuedBytes += bytes
	if l.queuedBytes > l.stats.MaxQueueBytes {
		l.stats.MaxQueueBytes = l.queuedBytes
	}
	l.stats.Messages++
	l.stats.BytesEnqueued += int64(bytes)
	l.stats.BusySeconds += dur
	l.stats.BlockedSeconds += blocked
	l.stats.QueuedSeconds += queued
	return start, blocked, queued
}

func (l *sliceLink) finalize() {
	for len(l.queue) > 0 {
		b := l.queue[0]
		l.queue = l.queue[1:]
		l.queuedBytes -= b.bytes
		l.stats.BytesDrained += int64(b.bytes)
	}
}

// TestFlowLinkRingMatchesSlice drives random bookings through one
// flowLink at several queue depths, from one that backpressures every
// message to one that never does, and holds each to the slice FIFO: every
// booking must give the same (start, blocked, queued), the live bookings
// must agree after each, and the final LinkStats must be equal. Arrivals
// come in bursts at about 90% of the link's rate, so the queue fills and
// empties and the ring wraps many times.
func TestFlowLinkRingMatchesSlice(t *testing.T) {
	t.Parallel()
	const (
		rate     = 1e9
		bookings = 20000
		maxBytes = 8 << 10
	)
	meanGap := float64(maxBytes) / 2 / rate / 0.9
	rng := rand.New(rand.NewSource(7))
	for _, depth := range []int{0, 4 << 10, 64 << 10, math.MaxInt} {
		ring := flowLink{rate: rate, depth: depth}
		ref := sliceLink{rate: rate, depth: depth}
		ready := 0.0
		for i := 0; i < bookings; i++ {
			if rng.Intn(4) == 0 {
				ready += rng.ExpFloat64() * 4 * meanGap
			}
			bytes := rng.Intn(maxBytes + 1)
			s1, b1, q1 := ring.admit(ready, bytes)
			s2, b2, q2 := ref.admit(ready, bytes)
			if s1 != s2 || b1 != b2 || q1 != q2 {
				t.Fatalf("depth %d booking %d (%d B at %.9g): ring gives (%.12g, %.12g, %.12g), slice (%.12g, %.12g, %.12g)",
					depth, i, bytes, ready, s1, b1, q1, s2, b2, q2)
			}
			if live := ring.queue.live(); !slices.Equal(live, ref.queue) {
				t.Fatalf("depth %d booking %d: ring holds %v, slice %v", depth, i, live, ref.queue)
			}
		}
		if popped := bookings - ring.queue.n; popped < 10*len(ring.queue.ring) {
			t.Errorf("depth %d: %d bookings drained through a ring of %d: it wrapped fewer than 10 times",
				depth, popped, len(ring.queue.ring))
		}
		ring.finalize()
		ref.finalize()
		if ring.stats != ref.stats {
			t.Errorf("depth %d: ring LinkStats %+v, slice %+v", depth, ring.stats, ref.stats)
		}
		if ring.queue.n != 0 || ring.queuedBytes != 0 {
			t.Errorf("depth %d: finalize left %d bookings, %d B", depth, ring.queue.n, ring.queuedBytes)
		}
		t.Logf("depth %d: ring of %d, max queue %d B, blocked %.3g s, queued %.3g s",
			depth, len(ring.queue.ring), ring.stats.MaxQueueBytes, ring.stats.BlockedSeconds, ring.stats.QueuedSeconds)
	}
}
