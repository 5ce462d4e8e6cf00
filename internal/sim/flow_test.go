package sim

import (
	"fmt"
	"math"
	"math/rand"
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
		s, err := sched.Generate(tr.gen, p, mapping)
		if err != nil {
			t.Fatalf("trial %d: %v", ti, err)
		}
		if err := sched.Verify(s); err != nil {
			t.Fatalf("trial %d: generated schedule fails verification: %v", ti, err)
		}
		cfg := ClusterConfig{Model: m, Nodes: tr.nodes, PPN: tr.ppn, Seed: int64(ti + 1), Fabric: tr.fabric}
		var rep *FlowReport
		st, err := RunClusterDebug(cfg, func(c comm.Comm) error {
			rp, err := sched.Slice(s, c.Rank())
			if err != nil {
				return err
			}
			ex := sched.NewRankExec(rp)
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
				for _, b := range l.queue {
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
			if tag < sched.TagBase || tag >= sched.TagBase+len(s.Rounds) {
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
