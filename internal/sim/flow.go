package sim

import (
	"fmt"

	"alltoallx/internal/topo"
)

// This file is the flow-level contention model: per-link FIFO queues for
// the inter-node fabric links of a direct-connect topology
// (topo.Fabric), layered *beneath* the analytic per-message costing.
//
// The analytic model charges inter-node messages at the two NIC ports
// only; with a fabric enabled (ClusterConfig.Fabric), every inter-node
// message is additionally booked onto each fabric link its route
// traverses. Links are virtual cut-through: a message's head passes a
// link the moment the link starts serving it, so an uncontended flow
// pays exactly the analytic cost (the NIC ports remain the serialization
// points) and the flow level is a strict refinement — it only ever adds
// time, and only through two contention terms:
//
//   - queued time: the link is busy serializing earlier flows
//     (FIFO time-division — over a round, k overlapping flows each see
//     ~1/k of the link's bandwidth);
//   - blocked time: the link's queue already holds more than
//     FabricQueueBytes of undrained traffic, so admission (and with it
//     the whole remaining route) stalls until the queue drains below its
//     depth — backpressure.
//
// Every booking is conserved: bytes enqueued on a link equal bytes
// drained once the run's FlowReport is taken, and per-round (per-tag)
// congestion sums equal the per-link sums — the invariants the
// conservation property tests in flow_test.go fuzz.

// linkBooking is one message's occupancy of a link: its serialization
// interval end and its size, kept until drained for queue-depth
// accounting.
type linkBooking struct {
	finish float64
	bytes  int
}

// LinkStats are one directed link's cumulative flow statistics.
type LinkStats struct {
	// Messages is the number of flows booked onto the link.
	Messages int
	// BytesEnqueued and BytesDrained count payload bytes entering and
	// leaving the link's queue; they are equal after FlowReport.
	BytesEnqueued, BytesDrained int64
	// BusySeconds is the link's total serialization time.
	BusySeconds float64
	// BlockedSeconds is time flows spent stalled upstream waiting for
	// queue space (backpressure).
	BlockedSeconds float64
	// QueuedSeconds is time flows spent waiting for the link to finish
	// serving earlier flows (FIFO sharing).
	QueuedSeconds float64
	// MaxQueueBytes is the high-water mark of undrained bytes.
	MaxQueueBytes int
}

// bookingQueue is a link's FIFO of undrained bookings: a ring buffer
// that doubles when full, so a link books without allocating once its
// queue has been as deep before.
type bookingQueue struct {
	ring []linkBooking // empty or a power of two long
	head int           // index of the oldest booking
	n    int           // live bookings
}

func (q *bookingQueue) push(b linkBooking) {
	if q.n == len(q.ring) {
		grown := make([]linkBooking, max(8, 2*len(q.ring)))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = b
	q.n++
}

// front returns the oldest booking; the queue must not be empty.
func (q *bookingQueue) front() linkBooking { return q.ring[q.head] }

func (q *bookingQueue) pop() linkBooking {
	b := q.ring[q.head]
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return b
}

// flowLink is one directed fabric link: a FIFO-served resource with a
// finite queue. All methods run under the engine's one-at-a-time
// discipline in nondecreasing virtual time (the same conservative-DES
// invariant the other resources rely on).
type flowLink struct {
	from, to int
	rate     float64
	depth    int

	nextFree    float64
	queue       bookingQueue
	queuedBytes int
	stats       LinkStats
}

// retire drains the oldest booking and returns its finish time.
func (l *flowLink) retire() float64 {
	b := l.queue.pop()
	l.queuedBytes -= b.bytes
	l.stats.BytesDrained += int64(b.bytes)
	return b.finish
}

// drain retires bookings whose serialization ended by time t.
func (l *flowLink) drain(t float64) {
	for l.queue.n > 0 && l.queue.front().finish <= t {
		l.retire()
	}
}

// admit books a message of the given size onto the link at time ready
// and returns when its head may proceed to the next stage, plus the
// backpressure (blocked) and FIFO (queued) waits it paid. The link stays
// occupied for the full serialization interval — that occupancy, not the
// head's passage, is what later flows queue behind.
func (l *flowLink) admit(ready float64, bytes int) (start, blocked, queued float64) {
	l.drain(ready)
	admission := ready
	for l.queuedBytes+bytes > l.depth && l.queue.n > 0 {
		if finish := l.retire(); finish > admission {
			admission = finish
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
	l.queue.push(linkBooking{finish: start + dur, bytes: bytes})
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

// finalize retires every outstanding booking (taken at report time: the
// run is over, the tails have left the wire).
func (l *flowLink) finalize() {
	for l.queue.n > 0 {
		l.retire()
	}
}

// RoundCongestion aggregates link congestion per message tag. The
// schedule executor tags round ri's messages sched.TagBase+ri, so for
// schedule-driven traffic this is the per-round congestion breakdown.
type RoundCongestion struct {
	// Hops counts link bookings (a message crossing three links books
	// three hops).
	Hops int
	// LinkBytes is payload bytes times links traversed.
	LinkBytes int64
	// BlockedSeconds and QueuedSeconds sum the backpressure and FIFO
	// waits of this tag's bookings.
	BlockedSeconds float64
	QueuedSeconds  float64
}

// LinkReport is one directed link's identity and statistics.
type LinkReport struct {
	From, To int
	LinkStats
}

// FlowReport is the flow level's end-of-run observability: per-link
// statistics in deterministic (from, to) order, per-tag congestion, and
// the totals the Stats counters surface.
type FlowReport struct {
	Fabric string
	Nodes  int
	Links  []LinkReport
	// Rounds is keyed by message tag (sched rounds use sched.TagBase+ri).
	Rounds map[int]RoundCongestion
	// TotalBlockedSeconds and TotalQueuedSeconds sum the per-link (and,
	// identically, per-round) congestion terms.
	TotalBlockedSeconds float64
	TotalQueuedSeconds  float64
	// MaxQueueBytes is the deepest any link's queue got.
	MaxQueueBytes int
}

// flowState is the Network's fabric extension.
type flowState struct {
	fabric *topo.Fabric
	links  []flowLink
	routes [][][]int // [srcNode][dstNode] -> link ids, filled lazily
	rounds map[int]*RoundCongestion
}

// newFlowState builds the per-link state for a fabric kind over the
// mapping's nodes, validating that the model carries link parameters.
func newFlowState(kind string, nodes int, linkBW float64, queueBytes int) (*flowState, error) {
	if linkBW <= 0 {
		return nil, fmt.Errorf("sim: fabric %q requested but the machine model has no FabricLinkBW (flow-level contention is disabled for it)", kind)
	}
	f, err := topo.NewFabric(kind, nodes)
	if err != nil {
		return nil, err
	}
	fs := &flowState{
		fabric: f,
		links:  make([]flowLink, f.Links()),
		routes: make([][][]int, nodes),
		rounds: make(map[int]*RoundCongestion),
	}
	for id := range fs.links {
		from, to := f.Edge(id)
		fs.links[id] = flowLink{from: from, to: to, rate: linkBW, depth: queueBytes}
	}
	for i := range fs.routes {
		fs.routes[i] = make([][]int, nodes)
	}
	return fs, nil
}

// routeLinks returns (and caches) the link ids from src to dst node.
func (fs *flowState) routeLinks(src, dst int) []int {
	if r := fs.routes[src][dst]; r != nil {
		return r
	}
	r := fs.fabric.RouteLinks(src, dst)
	fs.routes[src][dst] = r
	return r
}

// note attributes one link booking's congestion to a message tag.
func (fs *flowState) note(tag, bytes int, blocked, queued float64) {
	rc := fs.rounds[tag]
	if rc == nil {
		rc = &RoundCongestion{}
		fs.rounds[tag] = rc
	}
	rc.Hops++
	rc.LinkBytes += int64(bytes)
	rc.BlockedSeconds += blocked
	rc.QueuedSeconds += queued
}

// FlowReport finalizes the links (draining outstanding bookings) and
// returns the flow-level report, or nil when no fabric is configured.
func (n *Network) FlowReport() *FlowReport {
	fs := n.flow
	if fs == nil {
		return nil
	}
	rep := &FlowReport{
		Fabric: fs.fabric.Kind(),
		Nodes:  fs.fabric.Nodes(),
		Rounds: make(map[int]RoundCongestion, len(fs.rounds)),
	}
	for _, id := range fs.fabric.SortedLinks() {
		l := &fs.links[id]
		l.finalize()
		rep.Links = append(rep.Links, LinkReport{From: l.from, To: l.to, LinkStats: l.stats})
		rep.TotalBlockedSeconds += l.stats.BlockedSeconds
		rep.TotalQueuedSeconds += l.stats.QueuedSeconds
		if l.stats.MaxQueueBytes > rep.MaxQueueBytes {
			rep.MaxQueueBytes = l.stats.MaxQueueBytes
		}
	}
	for tag, rc := range fs.rounds {
		rep.Rounds[tag] = *rc
	}
	return rep
}
