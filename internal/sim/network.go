package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/topo"
)

// resource is a FIFO-served shared resource (a NUMA memory bus, an
// inter-socket link, a NIC port, a core's copy engine). nextFree is the
// virtual time the resource becomes idle; lastUser tracks the previous
// peer for the NIC interleaving penalty.
type resource struct {
	nextFree float64
	lastUser int
}

// reserve books the resource for a transfer of the given duration starting
// no earlier than ready, and returns the finish time.
func (r *resource) reserve(ready, dur float64) float64 {
	start := ready
	if r.nextFree > start {
		start = r.nextFree
	}
	r.nextFree = start + dur
	return r.nextFree
}

// hop is one resource on a message path together with its service rate and
// per-message cost. Shared hops (memory buses, NIC ports, socket links) are
// reserved jointly for the transfer's bottleneck duration — modeling
// cut-through/pipelined hardware rather than store-and-forward, so a
// message does not pay every hop's serialization twice. Dedicated hops
// (the receiver core's copy engine) serialize after the shared stage.
type hop struct {
	res        *resource
	rate       float64
	perMsg     float64
	interleave float64 // fractional duration penalty when senders interleave
	dedicated  bool
	link       *flowLink // fabric link stage (flow-level contention model)
}

// Network simulates the cluster fabric: topology-aware paths over shared
// resources, MPI-style matching with posted/unexpected queues, and eager/
// rendezvous protocols. All methods are called from rank processes running
// under the engine's one-at-a-time discipline, so no locking is needed.
type Network struct {
	e       *Engine
	p       netmodel.Params
	mapping *topo.Mapping
	scale   float64 // overhead scale (vendor profile); 1.0 normally

	numaBus    [][]resource // [node][numaPerNode]
	socketLink []resource   // [node]
	nicOut     []resource   // [node]
	nicIn      []resource   // [node]
	cores      []resource   // [world rank] receive-side copy engine

	boxes []simMailbox // [world rank]

	// flow is the optional flow-level contention model (per-link FIFO
	// queues over a topo.Fabric); nil runs the analytic model alone.
	flow *flowState

	rng      *rand.Rand
	msgsSent uint64

	free    *flight    // recycled flights (see newFlight)
	bounces [][][]byte // [c] recycled eager bounce buffers of capacity 1<<c (see bounce)
}

// NewNetwork builds the fabric for a mapping under the given model. seed
// fixes the noise stream; overheadScale scales software overheads (used by
// the system-MPI vendor profile; pass 1 otherwise). fabric, when non-empty,
// names a topo.Fabric kind and enables the flow-level contention model
// over the mapping's nodes; it errors when the model carries no
// FabricLinkBW.
func NewNetwork(e *Engine, p netmodel.Params, mapping *topo.Mapping, seed int64, overheadScale float64, fabric string) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if overheadScale <= 0 {
		return nil, fmt.Errorf("sim: overheadScale must be positive, got %g", overheadScale)
	}
	n := &Network{
		e: e, p: p, mapping: mapping, scale: overheadScale,
		rng: rand.New(rand.NewSource(seed)),
	}
	nodes := mapping.Nodes()
	if fabric != "" {
		fs, err := newFlowState(fabric, nodes, p.FabricLinkBW, p.FabricQueueBytes)
		if err != nil {
			return nil, err
		}
		n.flow = fs
	}
	n.numaBus = make([][]resource, nodes)
	for i := range n.numaBus {
		n.numaBus[i] = make([]resource, p.Node.NumaPerNode())
	}
	n.socketLink = make([]resource, nodes)
	n.nicOut = make([]resource, nodes)
	n.nicIn = make([]resource, nodes)
	n.cores = make([]resource, mapping.Size())
	n.boxes = make([]simMailbox, mapping.Size())
	n.bounces = make([][][]byte, bits.Len(uint(p.EagerMax))+1)
	return n, nil
}

// MessagesSent returns the count of point-to-point messages simulated.
func (n *Network) MessagesSent() uint64 { return n.msgsSent }

// noise returns a multiplicative lognormal factor (mean ~1) for overheads.
func (n *Network) noise() float64 {
	if n.p.NoiseSigma == 0 {
		return 1
	}
	s := n.p.NoiseSigma
	return math.Exp(n.rng.NormFloat64()*s - s*s/2)
}

// spike returns an additive rare OS-noise detour in seconds.
func (n *Network) spike() float64 {
	if n.p.SpikeProb == 0 || n.rng.Float64() >= n.p.SpikeProb {
		return 0
	}
	return n.rng.ExpFloat64() * n.p.SpikeMean
}

// overhead returns a noisy, scaled per-operation CPU cost.
func (n *Network) overhead(base float64) float64 {
	return base*n.scale*n.noise() + n.spike()
}

// copyTime returns the single-core copy duration for b bytes.
func (n *Network) copyTime(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / n.p.CopyBW * n.scale
}

// path fills hops (reusing its storage) with the hop list from src to dst
// world ranks and returns it, plus the locality level. Intra-node paths
// end at the destination core's copy engine (shared-memory transfers are
// CPU-driven copies); inter-node paths use NIC DMA and stop at the
// destination NUMA bus.
func (n *Network) path(src, dst int, hops []hop) ([]hop, topo.Level) {
	m := n.mapping
	level := m.LevelBetween(src, dst)
	sNode, dNode := m.NodeOf(src), m.NodeOf(dst)
	sNuma := m.NumaOf(m.LocalRank(src))
	dNuma := m.NumaOf(m.LocalRank(dst))
	busRate, busMsg := n.p.NumaBW, n.p.BusMsgCost*n.scale
	hops = hops[:0]
	switch level {
	case topo.Self:
		// Local "transfer": only the core copy engine.
		hops = append(hops, hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.IntraNuma:
		hops = append(hops,
			hop{res: &n.numaBus[sNode][sNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.IntraSocket:
		hops = append(hops,
			hop{res: &n.numaBus[sNode][sNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.numaBus[dNode][dNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.InterSocket:
		hops = append(hops,
			hop{res: &n.numaBus[sNode][sNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.socketLink[sNode], rate: n.p.SocketLinkBW, perMsg: busMsg},
			hop{res: &n.numaBus[dNode][dNuma], rate: busRate, perMsg: busMsg},
			hop{res: &n.cores[dst], rate: n.p.CopyBW, perMsg: 0, dedicated: true})
	case topo.InterNode:
		// The NIC ports are the binding inter-node resources (the memory
		// buses are 2-3x faster and never bind for wire traffic), so the
		// analytic path is just the two ports. With a fabric configured,
		// the route's links sit between them as cut-through stages: free
		// when idle, a queueing delay when shared (see flow.go).
		nicMsg := n.p.NICMsgCost * n.scale
		hops = append(hops,
			hop{res: &n.nicOut[sNode], rate: n.p.NICBW, perMsg: nicMsg, interleave: n.p.InterleavePenalty})
		if n.flow != nil {
			for _, id := range n.flow.routeLinks(sNode, dNode) {
				hops = append(hops, hop{link: &n.flow.links[id]})
			}
		}
		hops = append(hops,
			hop{res: &n.nicIn[dNode], rate: n.p.NICBW, perMsg: nicMsg, interleave: n.p.InterleavePenalty})
	}
	return hops, level
}

// flight is one message on its way through the fabric: its route, the
// stage it has reached and what its arrival completes. A message is a
// single flight, recycled through the network's free list, and a pending
// stage is an event on the flight's advance method (bound once), so
// moving a message allocates nothing.
type flight struct {
	n       *Network
	hops    []hop   // the route; inline's storage unless a fabric route outgrows it
	inline  [4]hop  // the longest intra-node path
	stage   int     // next hop to serve, or stageLaunch
	t       float64 // time that stage starts from
	srcNode int
	lat     float64

	// msg is the message. An eager one is delivered to its destination's
	// mailbox on arrival; a rendezvous one has already matched post: its
	// sender's request completes when the first stage clears, and the
	// receive on arrival, once the bytes have landed in post.buf.
	msg  simMsg
	post simPosted

	advanceFn func() // f.advance
	next      *flight
}

// stageLaunch marks a flight whose transfer starts when its event fires
// (a matched rendezvous waiting for its clear-to-send).
const stageLaunch = -1

// newFlight takes a flight from the free list, or makes one.
func (n *Network) newFlight() *flight {
	f := n.free
	if f == nil {
		f = &flight{n: n}
		f.hops = f.inline[:0]
		f.advanceFn = f.advance
		return f
	}
	n.free = f.next
	f.next = nil
	return f
}

// transfer routes f's message and books its first stage at ready.
func (n *Network) transfer(f *flight, ready float64) {
	var level topo.Level
	f.hops, level = n.path(f.msg.srcWorld, f.msg.dstWorld, f.hops)
	n.msgsSent++
	f.lat = n.p.Latency(level)
	// The interleaving penalty tracks the source *node*: a port drained by
	// long same-source runs (node-aware aggregation, aligned pairwise
	// steps) streams at full rate, while fine-grained exchanges that mix
	// flows from many nodes pay the congestion/reordering cost.
	f.srcNode = n.mapping.NodeOf(f.msg.srcWorld)
	f.step(0, ready)
}

// resumeAt schedules the flight's stage i to start at time t.
func (f *flight) resumeAt(i int, t float64) {
	f.stage, f.t = i, t
	f.n.e.At(t, f.advanceFn)
}

// advance is the flight's event: it starts a pending rendezvous transfer
// or serves the next stage.
func (f *flight) advance() {
	if f.stage == stageLaunch {
		f.n.transfer(f, f.t)
		return
	}
	f.step(f.stage, f.t)
}

// step books the message stage by stage from hop i at time t: this stage
// now, every later one by an event fired when the payload clears the
// previous stage. Booking stages at their actual start times is
// essential: reserving future slots up front would let one far-future
// booking push a scalar FIFO's nextFree forward and leave the resource
// idle for every later (but earlier-in-time) booking — a head-of-line
// artifact, not network physics.
//
// A rendezvous sender's request completes when the first (source-side)
// stage is clear — its buffer lifetime. The message arrives when the
// last stage is clear plus the wire latency. The message's tag attributes
// fabric-link congestion to its round (sched executor tagging).
func (f *flight) step(i int, t float64) {
	n := f.n
	for {
		h := &f.hops[i]
		if h.link != nil {
			// Cut-through fabric link: the head moves on the moment the
			// link starts serving it (zero added time when uncontended —
			// the NIC ports stay the serialization points), while the
			// link stays occupied for the payload's full serialization,
			// which is what queues and backpressures later flows.
			start, blocked, queued := h.link.admit(t, f.msg.bytes)
			n.flow.note(f.msg.env.tag, f.msg.bytes, blocked, queued)
			if start > t {
				f.resumeAt(i+1, start)
				return
			}
			i++
			continue
		}
		dur := h.perMsg
		if f.msg.bytes > 0 {
			d := float64(f.msg.bytes) / h.rate
			if h.interleave > 0 && h.res.lastUser != f.srcNode {
				d *= 1 + h.interleave
			}
			dur += d
		}
		h.res.lastUser = f.srcNode
		finish := h.res.reserve(t, dur)
		if i == 0 && f.msg.rdv {
			n.determine(f.msg.sendReq, finish, nil)
			// The sender's call may now return and reuse its request.
			f.msg.sendReq = nil
		}
		if i == len(f.hops)-1 {
			f.arrive(finish + f.lat)
			return
		}
		f.resumeAt(i+1, finish)
		return
	}
}

// arrive completes the message at its arrival time and returns the
// flight to the free list, dropping its references to payloads, requests
// and buffers.
func (f *flight) arrive(t float64) {
	n := f.n
	msg := &f.msg
	if !msg.rdv {
		n.deliverEager(msg.dstWorld, msg.env, msg.bytes, msg.payload, t)
	} else {
		if !msg.sendBuf.IsVirtual() && !f.post.buf.IsVirtual() && msg.bytes > 0 {
			copy(f.post.buf.Bytes(), msg.sendBuf.Bytes()[:msg.bytes])
		}
		n.determine(f.post.req, t, nil)
	}
	f.msg, f.post = simMsg{}, simPosted{}
	f.next, n.free = n.free, f
}

// envelope identifies a message for matching.
type envelope struct {
	ctx int64
	src int // sender's communicator rank
	tag int
}

// simReq is a simulated request: completion time is "determined"
// arithmetically at match time; waiters park until all their requests are
// determined.
type simReq struct {
	determined bool
	t          float64
	err        error
	w          *waiter
}

// Pending reports whether the request's completion is not yet determined.
func (r *simReq) Pending() bool { return !r.determined }

// blockingReqs resets p's two request slots and returns them.
func (p *Proc) blockingReqs() (*simReq, *simReq) {
	p.reqs = [2]simReq{}
	return &p.reqs[0], &p.reqs[1]
}

type waiter struct {
	p         *Proc
	remaining int
	tMax      float64
}

func (n *Network) determine(r *simReq, t float64, err error) {
	if r.determined {
		n.e.Fail(fmt.Errorf("sim: request determined twice"))
		return
	}
	r.determined = true
	r.t = t
	r.err = err
	if w := r.w; w != nil {
		r.w = nil
		w.remaining--
		if t > w.tMax {
			w.tMax = t
		}
		if w.remaining == 0 {
			n.e.WakeAt(w.p, w.tMax)
		}
	}
}

// simMsg is a message in an unexpected queue: either a buffered eager
// payload or a rendezvous RTS waiting for its receive.
type simMsg struct {
	env     envelope
	bytes   int
	payload []byte // eager copy when the send buffer was real

	tArrive float64 // eager: payload arrival time

	rdv         bool
	tRTSArrive  float64
	senderReady float64
	sendReq     *simReq
	sendBuf     comm.Buffer
	srcWorld    int
	dstWorld    int
}

// simPosted is a receive waiting in a posted queue.
type simPosted struct {
	env    envelope
	buf    comm.Buffer
	req    *simReq
	tReady float64
	world  int // receiver world rank
}

// simMailbox holds one rank's matching queues (FIFO per envelope).
type simMailbox struct {
	unexpected []simMsg
	posted     []simPosted
}

// Isend begins a send on behalf of process p. srcRank is the sender's rank
// inside the communicator identified by ctx; srcW/dstW are world ranks.
// The request escapes to the caller, so it is allocated.
func (n *Network) Isend(p *Proc, srcW, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) *simReq {
	p.Sync()
	req := &simReq{}
	n.isend(p, req, srcW, dstW, ctx, srcRank, tag, b)
	return req
}

// Send is a blocking Isend on p's first request slot.
func (n *Network) Send(p *Proc, srcW, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) error {
	p.Sync()
	req, _ := p.blockingReqs()
	n.isend(p, req, srcW, dstW, ctx, srcRank, tag, b)
	return n.WaitAll(p, req)
}

// isend starts a send completing req, after the caller has synchronized
// with global virtual time (combined operations like Sendrecv sync once
// for both halves: the two ops happen within an overhead of each other,
// and one park instead of two matters at tens of millions of messages).
func (n *Network) isend(p *Proc, req *simReq, srcW, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) {
	p.Advance(n.overhead(n.p.SendOverhead))
	if b.Len() <= n.p.EagerMax {
		// Eager: the sender copies the payload into a bounce buffer and is
		// free as soon as that local copy finishes — it does NOT wait for
		// the wire. This decoupling is what lets eager pairwise steps
		// pipeline through the NIC instead of convoying. The message
		// becomes matchable at the receiver when the payload arrives.
		var payload []byte
		if !b.IsVirtual() && b.Len() > 0 {
			payload = n.bounce(b.Len())
			copy(payload, b.Bytes())
		}
		f := n.newFlight()
		f.msg = simMsg{env: envelope{ctx: ctx, src: srcRank, tag: tag}, bytes: b.Len(),
			payload: payload, srcWorld: srcW, dstWorld: dstW}
		n.determine(req, p.now+n.copyTime(b.Len()), nil)
		n.transfer(f, p.now)
		return
	}
	// Rendezvous: an RTS races ahead; the transfer is scheduled when the
	// matching receive exists (see beginRendezvous).
	level := n.mapping.LevelBetween(srcW, dstW)
	msg := simMsg{
		env:         envelope{ctx: ctx, src: srcRank, tag: tag},
		bytes:       b.Len(),
		rdv:         true,
		tRTSArrive:  p.now + n.p.Latency(level),
		senderReady: p.now,
		sendReq:     req,
		sendBuf:     b,
		srcWorld:    srcW,
		dstWorld:    dstW,
	}
	box := &n.boxes[dstW]
	if i := findPosted(box, msg.env); i >= 0 {
		post := takePosted(box, i)
		n.beginRendezvous(msg, post)
	} else {
		box.unexpected = append(box.unexpected, msg)
	}
}

// Irecv posts a receive for process p (world rank dstW) on communicator
// ctx from srcRank with the given tag. The request escapes to the caller,
// so it is allocated.
func (n *Network) Irecv(p *Proc, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) *simReq {
	p.Sync()
	req := &simReq{}
	n.irecv(p, req, dstW, ctx, srcRank, tag, b)
	return req
}

// Recv is a blocking Irecv on p's first request slot.
func (n *Network) Recv(p *Proc, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) error {
	p.Sync()
	req, _ := p.blockingReqs()
	n.irecv(p, req, dstW, ctx, srcRank, tag, b)
	return n.WaitAll(p, req)
}

// irecv posts a receive completing req, after the caller has
// synchronized with global time.
func (n *Network) irecv(p *Proc, req *simReq, dstW int, ctx int64, srcRank, tag int, b comm.Buffer) {
	box := &n.boxes[dstW]
	env := envelope{ctx: ctx, src: srcRank, tag: tag}
	// Queue search: scan the unexpected queue up to the match (or fully).
	idx := findUnexpected(box, env)
	scanned := len(box.unexpected)
	if idx >= 0 {
		scanned = idx + 1
	}
	p.Advance(n.overhead(n.p.RecvOverhead + n.p.MatchCost*float64(scanned)))
	if idx >= 0 {
		msg := takeUnexpected(box, idx)
		n.completeMatch(msg, simPosted{env: env, buf: b, req: req, tReady: p.now, world: dstW})
		return
	}
	box.posted = append(box.posted, simPosted{env: env, buf: b, req: req, tReady: p.now, world: dstW})
}

// deliverEager matches an arriving eager message or buffers it.
func (n *Network) deliverEager(dstW int, env envelope, bytes int, payload []byte, arrival float64) {
	box := &n.boxes[dstW]
	msg := simMsg{env: env, bytes: bytes, payload: payload, tArrive: arrival, dstWorld: dstW}
	if i := findPosted(box, env); i >= 0 {
		post := takePosted(box, i)
		// Matching an arrival against a deep posted queue costs the
		// receiver's progress engine a scan; fold it into completion.
		scan := n.p.MatchCost * float64(i+1) * n.scale
		msg.tArrive += scan
		n.completeMatch(msg, post)
		return
	}
	box.unexpected = append(box.unexpected, msg)
}

// completeMatch finishes a matched (message, receive) pair. An eager
// payload's bounce buffer goes back to the free list once it is copied out
// (or dropped, when the receive is too short).
func (n *Network) completeMatch(msg simMsg, post simPosted) {
	if msg.bytes > post.buf.Len() {
		if msg.rdv {
			n.determine(msg.sendReq, msg.senderReady, comm.ErrTruncate)
		}
		n.determine(post.req, post.tReady, comm.ErrTruncate)
		n.releaseBounce(msg.payload)
		return
	}
	if msg.rdv {
		n.beginRendezvous(msg, post)
		return
	}
	// Eager: receive completes when the payload has arrived, the receive
	// is posted, and the copy out of the bounce buffer is done.
	t := msg.tArrive
	if post.tReady > t {
		t = post.tReady
	}
	t += n.copyTime(msg.bytes)
	if msg.payload != nil && !post.buf.IsVirtual() {
		copy(post.buf.Bytes(), msg.payload)
	}
	n.releaseBounce(msg.payload)
	n.determine(post.req, t, nil)
}

// bounce returns an eager bounce buffer of size bytes (0 < size <=
// EagerMax) from the free list. Buffers are kept by power-of-two capacity
// class, so any buffer of a class fits every size in it.
func (n *Network) bounce(size int) []byte {
	c := bits.Len(uint(size - 1))
	free := n.bounces[c]
	if len(free) == 0 {
		return make([]byte, size, 1<<c)
	}
	n.bounces[c] = free[:len(free)-1]
	return free[len(free)-1][:size]
}

// releaseBounce returns a bounce buffer (nil for a virtual payload) to
// the free list.
func (n *Network) releaseBounce(b []byte) {
	if b != nil {
		c := bits.Len(uint(cap(b) - 1))
		n.bounces[c] = append(n.bounces[c], b)
	}
}

// beginRendezvous runs the RTS/CTS handshake arithmetic and schedules the
// bulk transfer at its causally correct start time.
func (n *Network) beginRendezvous(msg simMsg, post simPosted) {
	level := n.mapping.LevelBetween(msg.srcWorld, msg.dstWorld)
	lat := n.p.Latency(level)
	// The receiver reacts once the RTS has arrived and the receive is
	// posted; the CTS flies back; the transfer starts when the CTS reaches
	// a sender whose data has been ready since senderReady.
	ctsDepart := msg.tRTSArrive
	if post.tReady > ctsDepart {
		ctsDepart = post.tReady
	}
	ctsArrive := ctsDepart + lat
	tStart := ctsArrive
	if msg.senderReady > tStart {
		tStart = msg.senderReady
	}
	f := n.newFlight()
	f.msg, f.post = msg, post
	f.resumeAt(stageLaunch, tStart)
}

// Sendrecv posts the receive and performs the send under a single global-
// time synchronization, then waits for both, on p's two request slots.
func (n *Network) Sendrecv(p *Proc, meW, dstW int, ctx int64, myRank, stag int, sb comm.Buffer, srcRank, rtag int, rb comm.Buffer) error {
	p.Sync()
	rreq, sreq := p.blockingReqs()
	n.irecv(p, rreq, meW, ctx, srcRank, rtag, rb)
	n.isend(p, sreq, meW, dstW, ctx, myRank, stag, sb)
	return n.WaitAll(p, rreq, sreq)
}

// WaitAll blocks p until every request is determined, advancing its clock
// to the latest completion, and returns the first error.
func (n *Network) WaitAll(p *Proc, reqs ...*simReq) error {
	tMax := p.now
	pending := 0
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if r.determined {
			if r.t > tMax {
				tMax = r.t
			}
		} else {
			pending++
		}
	}
	if pending > 0 {
		w := &p.w
		*w = waiter{p: p, remaining: pending, tMax: tMax}
		for _, r := range reqs {
			if r != nil && !r.determined {
				r.w = w
			}
		}
		p.Park("waitall")
	} else if tMax > p.now {
		p.now = tMax
	}
	for _, r := range reqs {
		if r != nil && r.err != nil {
			return r.err
		}
	}
	return nil
}

// Memcpy charges a single-core copy to p and moves real bytes.
func (n *Network) Memcpy(p *Proc, dst, src comm.Buffer) error {
	bytes, err := comm.CopyData(dst, src)
	if err != nil {
		return err
	}
	p.Advance((n.copyTime(bytes) + n.p.CopyBlockCost*n.scale) * n.noise())
	return nil
}

// ChargeCopy charges an aggregate repack (bytes moved in blocks separate
// block copies) to p's clock with a single noise draw.
func (n *Network) ChargeCopy(p *Proc, bytes, blocks int) error {
	if bytes < 0 || blocks < 0 {
		return fmt.Errorf("sim: ChargeCopy(%d, %d): negative argument", bytes, blocks)
	}
	p.Advance((n.copyTime(bytes) + n.p.CopyBlockCost*n.scale*float64(blocks)) * n.noise())
	return nil
}

func findPosted(box *simMailbox, env envelope) int {
	for i := range box.posted {
		if box.posted[i].env == env {
			return i
		}
	}
	return -1
}

func findUnexpected(box *simMailbox, env envelope) int {
	for i := range box.unexpected {
		if box.unexpected[i].env == env {
			return i
		}
	}
	return -1
}

// takePosted and takeUnexpected remove entry i. slices.Delete zeroes the
// vacated tail, so the backing array keeps no request or payload alive.
func takePosted(box *simMailbox, i int) simPosted {
	p := box.posted[i]
	box.posted = slices.Delete(box.posted, i, i+1)
	return p
}

func takeUnexpected(box *simMailbox, i int) simMsg {
	m := box.unexpected[i]
	box.unexpected = slices.Delete(box.unexpected, i, i+1)
	return m
}
