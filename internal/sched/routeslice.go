package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"alltoallx/internal/topo"
)

// This file compiles schedules from per-block routes, the Basu et al.
// construction for direct-connect topologies: every block (s, d) is
// assigned a multi-hop path through the topology, hop h of every path
// executes in round h, and all blocks moving between one rank pair in one
// round are packed into a single message. A rank's program stages
// in-transit blocks in a transit buffer indexed by arrival round and
// offset, double-buffers its receive packing and emits the pack/unpack
// copies.
//
// No path is ever materialised: a slicer per topology answers "which
// blocks depart from / arrive at rank x in round t?" in closed form, so
// compiling rank x costs O(blocks routed through x), not O(p^2 ·
// diameter), and round t needs only the departures of round t and the
// arrivals of rounds t-1 and t. The world proof (Prove) checks that the
// routes deliver every block to its destination.

// rmsg is one packed message of a round: the peer and the identities
// (s*p+d) of the blocks it carries, ascending.
type rmsg struct {
	peer   int
	blocks []int32
}

// rankSlicer enumerates one topology's per-rank, per-round traffic.
// outs/ins must return messages with peers ascending and block ids
// ascending within each message.
type rankSlicer interface {
	// rounds is the exchange round count (the longest route's hop count).
	rounds() int
	// packMax is the global staging bound: the largest per-rank, per-round
	// packed block count over the whole world.
	packMax() int
	// outs lists the messages rank x sends in round t.
	outs(x, t int) []rmsg
	// ins lists the messages rank x receives in round t.
	ins(x, t int) []rmsg
}

// Scratch layout of a route schedule: 0 = transit, rounds() x packMax
// blocks (a block that arrives in round t at offset off of its pack-recv
// buffer waits in slot t*packMax+off until it departs in round t+1; every
// family forwards a block in the round after it arrives), 1 = pack-send
// staging, 2/3 = alternating pack-recv staging.
const (
	routeTransit = 0
	routePackS   = 1
	routePackA   = 2
)

// routeSource is rank r's source of the route schedule described by sl:
// round t < rounds unpacks round t-1's arrivals (round 0 copies the self
// block instead), packs the round's departures and exchanges them; a
// final copies-only round unpacks the last exchange, whose arrivals are
// all home.
func routeSource(name string, p, r int, sl rankSlicer) *source {
	hops := sl.rounds()
	mp := sl.packMax()
	// arrivals caches the last round's arrivals: round t needs those of
	// t-1 and t.
	lastT, last := -1, []rmsg(nil)
	arrivals := func(t int) []rmsg {
		if t != lastT {
			lastT, last = t, sl.ins(r, t)
		}
		return last
	}
	// transit maps each block the current round unpacks into transit to
	// its slot: the round's unpack fills it and its pack reads it, so
	// every round is still written on its own.
	transit := make(map[int32]int32, mp)
	// unpack appends the steps restoring round t's arrivals from its
	// pack-recv buffer: home blocks land in the recv buffer, in-transit
	// blocks in transit slot t*mp+off.
	unpack := func(steps []Step, t int) []Step {
		buf := routePackA + t%2
		off := 0
		for _, m := range arrivals(t) {
			for _, b := range m.blocks {
				src, dst := int(b)/p, int(b)%p
				to := recvRef(src, 1)
				if dst != r {
					slot := t*mp + off
					transit[b] = int32(slot)
					to = scratchRef(routeTransit, slot, 1)
				}
				steps = append(steps, Step{Kind: Copy, Src: scratchRef(buf, off, 1), Dst: to})
				off++
			}
		}
		return steps
	}
	return alltoall(name, p, r, []int{hops * mp, mp, mp, mp}, phase{hops + 1, func(t int, steps []Step) []Step {
		clear(transit)
		if t == 0 {
			steps = append(steps, selfCopy(r))
		} else {
			steps = unpack(steps, t-1)
		}
		if t == hops {
			return steps
		}
		// Pack departures: a block leaving its source (round 0 of its
		// path) is read from the send buffer, a forwarded one from the
		// transit slot this round's unpack wrote.
		outs := sl.outs(r, t)
		off := 0
		for _, m := range outs {
			for _, b := range m.blocks {
				src, dst := int(b)/p, int(b)%p
				from := sendRef(dst, 1)
				if src != r {
					slot, ok := transit[b]
					if !ok {
						panic(fmt.Sprintf("sched: %s rank %d round %d: block (%d->%d) departs but did not arrive in round %d", name, r, t, src, dst, t-1))
					}
					from = scratchRef(routeTransit, int(slot), 1)
				}
				steps = append(steps, Step{Kind: Copy, Src: from, Dst: scratchRef(routePackS, off, 1)})
				off++
			}
		}
		off = 0
		for _, m := range arrivals(t) {
			steps = append(steps, Step{Kind: Recv, From: int32(m.peer), Dst: scratchRef(routePackA+t%2, off, len(m.blocks))})
			off += len(m.blocks)
		}
		off = 0
		for _, m := range outs {
			steps = append(steps, Step{Kind: Send, To: int32(m.peer), Src: scratchRef(routePackS, off, len(m.blocks))})
			off += len(m.blocks)
		}
		return steps
	}})
}

// blockCount totals the blocks a round's messages carry.
func blockCount(ms []rmsg) int {
	n := 0
	for _, m := range ms {
		n += len(m.blocks)
	}
	return n
}

// sortBlocks orders block ids ascending (the in-message order).
func sortBlocks(b []int32) []int32 {
	slices.Sort(b)
	return b
}

// sortMsgs orders messages by peer ascending.
func sortMsgs(ms []rmsg) []rmsg {
	slices.SortFunc(ms, func(a, b rmsg) int { return cmp.Compare(a.peer, b.peer) })
	return ms
}

// packMaxCache shares the computed global staging bound per (generator,
// shape): entries are a few bytes, but computing one can cost a full
// slice enumeration (torus) or an O(p^2) counting pass (hypercube).
var packMaxCache = struct {
	sync.Mutex
	m map[string]int
}{m: make(map[string]int)}

func cachedPackMax(key string, compute func() int) int {
	packMaxCache.Lock()
	defer packMaxCache.Unlock()
	if v, ok := packMaxCache.m[key]; ok {
		return v
	}
	v := compute()
	packMaxCache.m[key] = v
	return v
}

// ---------------------------------------------------------------------
// Ring
//
// Block (s, d) travels the shortest way around the bidirectional ring:
// forward over distance j = (d-s) mod p when j <= p/2 (ties go forward),
// else backward over p-j. A forward block sits at rank s+t at the start
// of round t (t < j), so the blocks departing x forward in round t are
// exactly {(x-t, x-t+j) : t < j <= floor(p/2)} — O(result), no path walk.

type ringSlicer struct{ p int }

func (s ringSlicer) maxF() int { return s.p / 2 }       // longest forward route
func (s ringSlicer) maxB() int { return (s.p+1)/2 - 1 } // longest backward route

func (s ringSlicer) rounds() int { return s.maxF() }

// packMax: at round 0 every rank stages all its departing blocks —
// floor(p/2) forward plus ceil(p/2)-1 backward = p-1 — and per-round
// counts only shrink from there; arrivals mirror departures by symmetry.
func (s ringSlicer) packMax() int { return s.p - 1 }

func (s ringSlicer) traffic(x, t int, arrivals bool) []rmsg {
	p := s.p
	// fwdAt/bwdAt: the rank whose round-t position is relevant. For
	// departures it is x itself; for arrivals, the upstream neighbor.
	fwdAt, bwdAt := x, x
	fwdPeer, bwdPeer := (x+1)%p, (x-1+p)%p
	if arrivals {
		fwdAt, bwdAt = (x-1+p)%p, (x+1)%p
		fwdPeer, bwdPeer = (x-1+p)%p, (x+1)%p
	}
	var msgs []rmsg
	if t < s.maxF() {
		src := ((fwdAt-t)%p + p) % p
		blocks := make([]int32, 0, s.maxF()-t)
		for j := t + 1; j <= s.maxF(); j++ {
			blocks = append(blocks, int32(src*p+(src+j)%p))
		}
		msgs = append(msgs, rmsg{peer: fwdPeer, blocks: sortBlocks(blocks)})
	}
	if t < s.maxB() {
		src := (bwdAt + t) % p
		blocks := make([]int32, 0, s.maxB()-t)
		for j := t + 1; j <= s.maxB(); j++ {
			blocks = append(blocks, int32(src*p+((src-j)%p+p)%p))
		}
		msgs = append(msgs, rmsg{peer: bwdPeer, blocks: sortBlocks(blocks)})
	}
	return sortMsgs(msgs)
}

func (s ringSlicer) outs(x, t int) []rmsg { return s.traffic(x, t, false) }
func (s ringSlicer) ins(x, t int) []rmsg  { return s.traffic(x, t, true) }

// ringSource is rank r's program of the direct-connect ring all-to-all:
// every block travels the shortest way around a bidirectional ring, one
// hop per round, and co-moving blocks share one message per link per
// round. Per-rank wire volume is Theta(p^2/8) blocks — the ring's
// bisection cost — against the direct exchange's p-1 single-block
// messages; the trade is message count (2 per rank per round) for
// volume, exactly the schedule family Basu et al. tune for
// direct-connect fabrics.
func ringSource(p, r int, m *topo.Mapping) (*source, error) {
	if p == 1 {
		return pairwiseSource(p, r, m)
	}
	return routeSource("ring", p, r, ringSlicer{p: p}), nil
}

// ---------------------------------------------------------------------
// Torus
//
// Block ((si,sj) -> (di,dj)) first rides the row ring to column dj (a =
// ring distance sj->dj over cols), then the column ring to row di (b =
// ring distance si->di over rows). In round t < a it sits at (si, pos_t)
// in its row ring; in round a <= t < a+b at (pos_{t-a}, dj) in its column
// ring. Both phases invert exactly like the plain ring; the column phase
// additionally enumerates the source column sj (cols candidates, each
// fixing a = ringdist(sj, xj)).

type torusSlicer struct{ rows, cols int }

func (s torusSlicer) p() int { return s.rows * s.cols }

func (s torusSlicer) rounds() int { return s.cols/2 + s.rows/2 }

func (s torusSlicer) packMax() int {
	key := fmt.Sprintf("torus|%d|%d", s.rows, s.cols)
	return cachedPackMax(key, func() int {
		// The torus is vertex-transitive (ring routes depend only on index
		// differences), so every rank sees the same per-round totals: rank
		// 0's maximum is the global maximum.
		mp := 1
		for t := 0; t < s.rounds(); t++ {
			for _, dir := range [2][]rmsg{s.outs(0, t), s.ins(0, t)} {
				mp = max(mp, blockCount(dir))
			}
		}
		return mp
	})
}

// ringDist is the route distance of the shortest-direction ring rule.
func ringDist(a, b, n int) int {
	f := ((b-a)%n + n) % n
	if f <= n/2 {
		return f
	}
	return n - f
}

func (s torusSlicer) traffic(x, t int, arrivals bool) []rmsg {
	rows, cols, p := s.rows, s.cols, s.p()
	xi, xj := x/cols, x%cols
	maxFc, maxBc := cols/2, (cols+1)/2-1
	maxFr, maxBr := rows/2, (rows+1)/2-1
	var msgs []rmsg

	// Row phase: blocks in row xi still riding the row ring. For
	// departures the round-t column position is xj; for arrivals the
	// upstream neighbor's.
	rowPhase := func(at int, peer int, backward bool) {
		var blocks []int32
		if !backward && t < maxFc {
			sj := ((at-t)%cols + cols) % cols
			src := xi*cols + sj
			for j := t + 1; j <= maxFc; j++ {
				dj := (sj + j) % cols
				for di := 0; di < rows; di++ {
					blocks = append(blocks, int32(src*p+di*cols+dj))
				}
			}
		}
		if backward && t < maxBc {
			sj := (at + t) % cols
			src := xi*cols + sj
			for j := t + 1; j <= maxBc; j++ {
				dj := ((sj-j)%cols + cols) % cols
				for di := 0; di < rows; di++ {
					blocks = append(blocks, int32(src*p+di*cols+dj))
				}
			}
		}
		if len(blocks) > 0 {
			msgs = append(msgs, rmsg{peer: peer, blocks: sortBlocks(blocks)})
		}
	}
	if arrivals {
		rowPhase((xj-1+cols)%cols, xi*cols+(xj-1+cols)%cols, false)
		rowPhase((xj+1)%cols, xi*cols+(xj+1)%cols, true)
	} else {
		rowPhase(xj, xi*cols+(xj+1)%cols, false)
		rowPhase(xj, xi*cols+(xj-1+cols)%cols, true)
	}

	// Column phase: blocks at column xj whose row ride started after a =
	// ringdist(sj, xj) rounds. tau = t - a is the column-ring round.
	colPhase := func(at int, peer int, backward bool) {
		var blocks []int32
		for sj := 0; sj < cols; sj++ {
			a := ringDist(sj, xj, cols)
			tau := t - a
			if tau < 0 {
				continue
			}
			if !backward && tau < maxFr {
				si := ((at-tau)%rows + rows) % rows
				src := si*cols + sj
				for i := tau + 1; i <= maxFr; i++ {
					di := (si + i) % rows
					blocks = append(blocks, int32(src*p+di*cols+xj))
				}
			}
			if backward && tau < maxBr {
				si := (at + tau) % rows
				src := si*cols + sj
				for i := tau + 1; i <= maxBr; i++ {
					di := ((si-i)%rows + rows) % rows
					blocks = append(blocks, int32(src*p+di*cols+xj))
				}
			}
		}
		if len(blocks) > 0 {
			msgs = append(msgs, rmsg{peer: peer, blocks: sortBlocks(blocks)})
		}
	}
	if arrivals {
		colPhase((xi-1+rows)%rows, ((xi-1+rows)%rows)*cols+xj, false)
		colPhase((xi+1)%rows, ((xi+1)%rows)*cols+xj, true)
	} else {
		colPhase(xi, ((xi+1)%rows)*cols+xj, false)
		colPhase(xi, ((xi-1+rows)%rows)*cols+xj, true)
	}
	return sortMsgs(msgs)
}

func (s torusSlicer) outs(x, t int) []rmsg { return s.traffic(x, t, false) }
func (s torusSlicer) ins(x, t int) []rmsg  { return s.traffic(x, t, true) }

// torusShape picks the 2D decomposition: the world topology's nodes x ppn
// when it matches the rank count, otherwise the most-square
// factorization.
func torusShape(p int, m *topo.Mapping) (rows, cols int) {
	if m != nil && m.Nodes()*m.PPN() == p {
		return m.Nodes(), m.PPN()
	}
	rows = 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			rows = f
		}
	}
	return rows, p / rows
}

// torusSource is rank r's program of the 2D-torus all-to-all: ranks form
// a rows x cols torus (the node x ppn grid when the topology is known,
// else the most-square factorization), and every block first rides the
// row ring to its destination column, then the column ring to its
// destination row — both shortest-direction, one hop per round, with
// per-link message packing.
func torusSource(p, r int, m *topo.Mapping) (*source, error) {
	if p == 1 {
		return pairwiseSource(p, r, m)
	}
	rows, cols := torusShape(p, m)
	return routeSource(fmt.Sprintf("torus%dx%d", rows, cols), p, r, torusSlicer{rows: rows, cols: cols}), nil
}

// ---------------------------------------------------------------------
// Hypercube
//
// Block (s, d) fixes the differing bits of s^d one per round, scanning
// dimensions cyclically from the source-dependent start bit (s+j) mod k.
// Its position after t fixes is s ^ e where e is the first t differing
// bits in scan order — so the blocks at rank x in round t are found by
// enumerating s with popcount(s^x) = t: the bits of e pin scan positions
// below tau = 1 + max scan index of e (where d must agree with x), and
// the k - tau later-scanned bits of d are free.

type hcubeSlicer struct{ p, k int }

func (s hcubeSlicer) rounds() int { return s.k }

// scanTau returns 1 + the largest scan index of e's bits from source s
// (0 for e == 0).
func (s hcubeSlicer) scanTau(src, e int) int {
	tau := 0
	for b := 0; b < s.k; b++ {
		if e>>b&1 == 1 {
			j := ((b-src)%s.k + s.k) % s.k
			if j+1 > tau {
				tau = j + 1
			}
		}
	}
	return tau
}

func (s hcubeSlicer) packMax() int {
	key := fmt.Sprintf("hypercube|%d", s.p)
	return cachedPackMax(key, func() int {
		// Unlike the rings, the scan start bit depends on the source's
		// arithmetic value, so per-rank totals are not symmetric in
		// general: count every (rank, round) with an O(p^2) pass (counts
		// only — no paths, no steps).
		mp := 1
		for x := 0; x < s.p; x++ {
			outT := make([]int, s.k+1)
			inT := make([]int, s.k+1)
			for src := 0; src < s.p; src++ {
				e := src ^ x
				m := bits.OnesCount(uint(e))
				free := s.k - s.scanTau(src, e)
				outT[m] += 1<<free - 1
				if m >= 1 {
					inT[m-1] += 1 << free
				}
			}
			for _, n := range outT {
				if n > mp {
					mp = n
				}
			}
			for _, n := range inT {
				if n > mp {
					mp = n
				}
			}
		}
		return mp
	})
}

func (s hcubeSlicer) outs(x, t int) []rmsg {
	byDim := make([][]int32, s.k)
	for src := 0; src < s.p; src++ {
		e := src ^ x
		if bits.OnesCount(uint(e)) != t {
			continue
		}
		// Free dimensions in scan order start at scan index tau; the first
		// differing one is the next hop.
		tau := s.scanTau(src, e)
		free := s.k - tau
		for mask := 1; mask < 1<<free; mask++ {
			d := x
			first := -1
			for idx := 0; idx < free; idx++ {
				if mask>>idx&1 == 1 {
					b := (src + tau + idx) % s.k
					d ^= 1 << b
					if first < 0 {
						first = b
					}
				}
			}
			byDim[first] = append(byDim[first], int32(src*s.p+d))
		}
	}
	return dimMsgs(x, byDim)
}

func (s hcubeSlicer) ins(x, t int) []rmsg {
	byDim := make([][]int32, s.k)
	for src := 0; src < s.p; src++ {
		e := src ^ x
		if bits.OnesCount(uint(e)) != t+1 {
			continue
		}
		// The (t+1)-th fix is e's bit with the largest scan index: that
		// hop carried the block here, so the sender is across it.
		tau, last := 0, -1
		for b := 0; b < s.k; b++ {
			if e>>b&1 == 1 {
				j := ((b-src)%s.k + s.k) % s.k
				if j+1 > tau {
					tau, last = j+1, b
				}
			}
		}
		for mask := 0; mask < 1<<(s.k-tau); mask++ {
			d := x
			for idx := 0; idx < s.k-tau; idx++ {
				if mask>>idx&1 == 1 {
					d ^= 1 << ((src + tau + idx) % s.k)
				}
			}
			byDim[last] = append(byDim[last], int32(src*s.p+d))
		}
	}
	return dimMsgs(x, byDim)
}

// dimMsgs converts rank x's per-dimension block lists into the canonical
// message order: dimension b's blocks travel to or from peer x^(1<<b).
func dimMsgs(x int, byDim [][]int32) []rmsg {
	msgs := make([]rmsg, 0, len(byDim))
	for b, blocks := range byDim {
		if len(blocks) > 0 {
			msgs = append(msgs, rmsg{peer: x ^ 1<<b, blocks: sortBlocks(blocks)})
		}
	}
	return sortMsgs(msgs)
}

// hypercubeSource is rank r's program of the multiport hypercube
// all-to-all (p must be a power of two): every block fixes the
// differing address bits of its (source, destination) pair one per
// round, scanning the k = log2(p) dimensions cyclically from a
// source-dependent start bit. Staggering the start bit spreads each
// round's traffic across all k links of every rank — the multiport
// schedule — instead of serializing rounds onto one dimension as the
// single-port (Bruck-style) exchange does.
func hypercubeSource(p, r int, m *topo.Mapping) (*source, error) {
	k, err := hypercubeShape(p)
	if err != nil {
		return nil, err
	}
	if p == 1 {
		return pairwiseSource(p, r, m)
	}
	return routeSource("hypercube", p, r, hcubeSlicer{p: p, k: k}), nil
}
