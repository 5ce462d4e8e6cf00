package sim

import (
	"errors"
	"fmt"
	"sort"

	"alltoallx/internal/comm"
	"alltoallx/internal/topo"
)

// SimComm is one simulated rank's communicator handle. It implements
// comm.Comm on top of the Network, so the same algorithm code that runs on
// the live runtime runs here under virtual time.
type SimComm struct {
	cl       *cluster
	p        *Proc
	id       int64 // context id; internal protocol traffic uses -(id+1)
	rank     int
	ranks    []int // comm rank -> world rank
	isWorld  bool
	splitSeq int
}

var (
	_ comm.Comm         = (*SimComm)(nil)
	_ comm.AsyncStarter = (*SimComm)(nil)
)

// Rank returns this process's rank in the communicator.
func (c *SimComm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *SimComm) Size() int { return len(c.ranks) }

// Topo returns the world mapping on the world communicator, nil otherwise.
func (c *SimComm) Topo() *topo.Mapping {
	if c.isWorld {
		return c.cl.mapping
	}
	return nil
}

// Now returns the rank's virtual time in seconds.
func (c *SimComm) Now() float64 { return c.p.Now() }

// Memcpy copies src to dst, charging single-core copy time.
func (c *SimComm) Memcpy(dst, src comm.Buffer) error {
	return c.cl.net.Memcpy(c.p, dst, src)
}

// ChargeCopy charges an aggregate repack of the given volume and block
// count to this rank's clock.
func (c *SimComm) ChargeCopy(bytes, blocks int) error {
	return c.cl.net.ChargeCopy(c.p, bytes, blocks)
}

// Compute charges `seconds` of application computation to this rank's
// virtual clock, minus whatever portion hides behind the rank's
// outstanding started operations (see StartAsync). With no operation in
// flight it is exactly an Advance: compute is CPU-busy time. The charge is
// purely local — no shared simulator state is touched — so no global-time
// synchronization is needed.
func (c *SimComm) Compute(seconds float64) error {
	if seconds < 0 {
		return fmt.Errorf("sim: Compute(%g): negative duration", seconds)
	}
	remaining := seconds
	for _, tok := range c.p.overlap {
		if remaining <= 0 {
			break
		}
		hide := tok.budget
		if hide > remaining {
			hide = remaining
		}
		tok.budget -= hide
		remaining -= hide
	}
	c.p.Advance(remaining)
	return nil
}

// simToken is the simulator's comm.Async. The body has already executed
// eagerly by the time the token exists (see StartAsync); what remains is
// its overlap budget — the waiting time the exchange left on the table,
// which Compute calls on the same rank draw down until the token is
// joined.
type simToken struct {
	p      *Proc
	err    error
	budget float64 // waited seconds still hideable behind Compute
}

// Join completes the token, withdrawing any unconsumed overlap budget:
// once the handle is waited, later compute can no longer pretend to have
// run during the exchange.
func (t *simToken) Join() error {
	t.release()
	return t.err
}

// TryJoin reports completion (always true: the body ran eagerly) and
// releases the budget like Join.
func (t *simToken) TryJoin() (bool, error) {
	t.release()
	return true, t.err
}

func (t *simToken) release() {
	for i, tok := range t.p.overlap {
		if tok == t {
			t.p.overlap = append(t.p.overlap[:i], t.p.overlap[i+1:]...)
			return
		}
	}
}

// StartAsync is the simulator's comm.AsyncStarter. A simulated rank is a
// single coroutine under the event loop, so the body cannot literally run
// concurrently with the caller; instead it executes eagerly — advancing
// virtual time and moving messages exactly as the blocking call would —
// and the time the rank spent *parked* during the exchange (waiting on
// completions rather than busy with overheads and copies) is banked as an
// overlap budget. Subsequent Compute calls consume that budget before
// charging the clock, so a Start / Compute / Wait sequence costs
// busy + max(compute, waited) = max(T_comm, compute + busy): the classic
// overlap model in which only software overhead is unhideable. Messages
// still traverse the network at their blocking-call times — an
// approximation that preserves aggregate contention, since every rank of
// an SPMD program overlaps the same way.
func (c *SimComm) StartAsync(body func() error) comm.Async {
	p := c.p
	t0, b0 := p.Now(), p.Busy()
	err := body()
	waited := (p.Now() - t0) - (p.Busy() - b0)
	if waited < 0 {
		waited = 0
	}
	tok := &simToken{p: p, err: err, budget: waited}
	p.overlap = append(p.overlap, tok)
	return tok
}

// checkPeerTag validates a peer rank and a tag.
func (c *SimComm) checkPeerTag(peer, tag int) error {
	if err := comm.CheckPeer(peer, c.Size()); err != nil {
		return err
	}
	return comm.CheckTag(tag)
}

// Send blocks until the message is injected (eager) or transferred
// (rendezvous).
func (c *SimComm) Send(b comm.Buffer, dst, tag int) error {
	if err := c.checkPeerTag(dst, tag); err != nil {
		return err
	}
	return c.cl.net.Send(c.p, c.ranks[c.rank], c.ranks[dst], c.id, c.rank, tag, b)
}

// Recv blocks until a matching message completes into b.
func (c *SimComm) Recv(b comm.Buffer, src, tag int) error {
	if err := c.checkPeerTag(src, tag); err != nil {
		return err
	}
	return c.cl.net.Recv(c.p, c.ranks[c.rank], c.id, src, tag, b)
}

// Isend starts a nonblocking send.
func (c *SimComm) Isend(b comm.Buffer, dst, tag int) (comm.Request, error) {
	if err := c.checkPeerTag(dst, tag); err != nil {
		return nil, err
	}
	return c.cl.net.Isend(c.p, c.ranks[c.rank], c.ranks[dst], c.id, c.rank, tag, b), nil
}

// Irecv starts a nonblocking receive.
func (c *SimComm) Irecv(b comm.Buffer, src, tag int) (comm.Request, error) {
	if err := c.checkPeerTag(src, tag); err != nil {
		return nil, err
	}
	return c.cl.net.Irecv(c.p, c.ranks[c.rank], c.id, src, tag, b), nil
}

// Wait blocks until the request completes.
func (c *SimComm) Wait(r comm.Request) error {
	if r == nil {
		return nil
	}
	sr, ok := r.(*simReq)
	if !ok {
		return fmt.Errorf("sim: foreign request type %T", r)
	}
	return c.cl.net.WaitAll(c.p, sr)
}

// WaitAll blocks until all requests complete. The request list is the
// process's scratch, cleared after the wait so it keeps no request alive.
func (c *SimComm) WaitAll(rs []comm.Request) error {
	srs := c.p.waitList[:0]
	defer func() { clear(srs) }()
	for _, r := range rs {
		if r == nil {
			continue
		}
		sr, ok := r.(*simReq)
		if !ok {
			return fmt.Errorf("sim: foreign request type %T", r)
		}
		srs = append(srs, sr)
	}
	c.p.waitList = srs
	return c.cl.net.WaitAll(c.p, srs...)
}

// Sendrecv posts the receive, performs the send, then completes the
// receive — deadlock-free for symmetric exchanges.
func (c *SimComm) Sendrecv(sb comm.Buffer, dst, stag int, rb comm.Buffer, src, rtag int) error {
	if err := c.checkPeerTag(dst, stag); err != nil {
		return err
	}
	if err := c.checkPeerTag(src, rtag); err != nil {
		return err
	}
	me := c.ranks[c.rank]
	return c.cl.net.Sendrecv(c.p, me, c.ranks[dst], c.id, c.rank, stag, sb, src, rtag, rb)
}

// Barrier is a dissemination barrier over the communicator's internal
// context: ceil(log2 n) rounds of zero-byte exchanges, so barrier cost is
// modeled with the same latency/overhead terms as everything else.
func (c *SimComm) Barrier() error {
	n := c.Size()
	if n == 1 {
		return nil
	}
	me := c.ranks[c.rank]
	ictx := -(c.id + 1)
	empty := comm.Buffer{}
	round := 0
	for k := 1; k < n; k <<= 1 {
		to := c.ranks[(c.rank+k)%n]
		from := (c.rank - k%n + n) % n
		err := c.cl.net.Sendrecv(c.p, me, to, ictx, c.rank, round, empty, from, round, empty)
		if err != nil {
			return fmt.Errorf("sim: barrier round %d (to %d, from %d): %w", round, to, c.ranks[from], err)
		}
		round++
	}
	return nil
}

// Split partitions the communicator (collective, untimed: communicator
// construction is setup, performed outside the paper's timed regions).
// Ranks passing color < 0 receive a nil communicator.
func (c *SimComm) Split(color, key int) (comm.Comm, error) {
	seq := c.splitSeq
	c.splitSeq++
	res := c.cl.split(c, seq, color, key)
	if res == nil {
		return nil, nil
	}
	return res, nil
}

// splitKey identifies one collective Split call on one communicator.
type splitKey struct {
	commID int64
	seq    int
}

type splitEntry struct {
	rank, color, key int
}

type splitGather struct {
	entries []splitEntry
	parked  []*Proc
	results []*SimComm // indexed by parent rank
	readers int
}

// split implements the collective rendezvous: the last arriving rank
// computes the partition and wakes the others without charging time.
func (cl *cluster) split(c *SimComm, seq, color, key int) *SimComm {
	k := splitKey{commID: c.id, seq: seq}
	g := cl.splits[k]
	if g == nil {
		g = &splitGather{}
		cl.splits[k] = g
	}
	g.entries = append(g.entries, splitEntry{rank: c.rank, color: color, key: key})
	if len(g.entries) > c.Size() {
		cl.e.Fail(errSplitSize)
		return nil
	}
	if len(g.entries) < c.Size() {
		g.parked = append(g.parked, c.p)
		c.p.Park("split")
	} else {
		g.results = cl.computeSplit(c, g.entries)
		for _, p := range g.parked {
			cl.e.WakeAt(p, p.Now())
		}
	}
	res := g.results[c.rank]
	g.readers++
	if g.readers == c.Size() {
		delete(cl.splits, k)
	}
	return res
}

// computeSplit builds the new communicators: groups by color, ordered by
// (key, parent rank), each with a fresh context id in deterministic order.
func (cl *cluster) computeSplit(parent *SimComm, entries []splitEntry) []*SimComm {
	results := make([]*SimComm, parent.Size())
	byColor := make(map[int][]splitEntry)
	for _, e := range entries {
		if e.color < 0 {
			continue
		}
		byColor[e.color] = append(byColor[e.color], e)
	}
	colors := make([]int, 0, len(byColor))
	for col := range byColor {
		colors = append(colors, col)
	}
	sort.Ints(colors)
	for _, col := range colors {
		group := byColor[col]
		sort.Slice(group, func(i, j int) bool {
			if group[i].key != group[j].key {
				return group[i].key < group[j].key
			}
			return group[i].rank < group[j].rank
		})
		worldRanks := make([]int, len(group))
		for i, e := range group {
			worldRanks[i] = parent.ranks[e.rank]
		}
		id := cl.nextCtx
		cl.nextCtx++
		for i, e := range group {
			results[e.rank] = &SimComm{
				cl:    cl,
				p:     cl.procs[parent.ranks[e.rank]],
				id:    id,
				rank:  i,
				ranks: worldRanks,
			}
		}
	}
	return results
}

// errSplitSize guards against misuse in tests.
var errSplitSize = errors.New("sim: split gathered more entries than communicator size")
