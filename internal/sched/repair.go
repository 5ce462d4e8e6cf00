package sched

import (
	"fmt"
	"math/bits"
	"sort"

	"alltoallx/internal/topo"
)

// Failure repair for route-compiled schedules. When one rank of a
// compiled world dies, recompiling the whole world at p-1 ranks is both
// expensive and shape-destroying (a 32x32 torus does not exist at 1023
// ranks; a hypercube does not exist at any non-power-of-two). Repair
// instead keeps the world shape and patches the schedule around the hole:
//
//   - blocks whose source or destination died are dropped — no surviving
//     rank wants them;
//   - blocks that merely *transited* the dead rank are rerouted over a
//     detour on the surviving fabric (ring: the complementary arc; torus:
//     a same-length dodge through the adjacent row or column that rejoins
//     the original path at the original round; hypercube: BFS on the cube
//     minus the failed vertex);
//   - every other movement is untouched.
//
// The work splits accordingly: route recomputation is confined to the
// traffic through the dead rank — discovered in O(its slice) via the
// inverse-routing slicers (ins(dead, t) enumerates exactly the blocks
// whose paths cross it) — while all other survivors' programs are a pure
// mechanical filter (drop dead-endpoint blocks and dead-peer messages)
// over the original slicer, with zero route work. RescheduledRanks
// reports the ranks that carry rerouted traffic (old or new path); only
// those have genuinely re-planned programs, and at scale they are a thin
// neighborhood of the failure (a 32x32 torus loses one row and one
// column, ~2*sqrt(p) of p ranks).
//
// Soundness: a repaired world is re-proved by the streamed verifier with
// the dead rank marked (StreamVerifier.SetDead) — the full dead-aware
// check over every surviving slice, not just the touched rounds, because
// the verifier's delivery accounting is a whole-slice property. That
// costs O(total schedule size) like any streamed verification, but no
// route construction.

// Repaired is a patched schedule world: the original shape with one rank
// removed, servable per rank like any sliced schedule.
type Repaired struct {
	// Gen is the generator family ("ring", "torus", "hypercube").
	Gen string
	// Name is the patched schedule name, e.g. "torus4x8-dead13".
	Name string
	// Ranks is the original world size; Dead the failed rank.
	Ranks int
	Dead  int

	sl          *repairSlicer
	rescheduled []int
	dropped     int
	rerouted    int
}

// repairFamily resolves the slicer, route and detour functions of one
// route-compiled generator family.
func repairFamily(gen string, p, dead int, m *topo.Mapping) (base rankSlicer, route func(s, d int) []int, detour func(s, d int) ([]int, error), name string, err error) {
	switch gen {
	case "ring":
		base = ringSlicer{p: p}
		route = func(s, d int) []int { return ringPath(s, d, p) }
		detour = func(s, d int) ([]int, error) { return ringDetour(s, d, p), nil }
		name = "ring"
	case "torus":
		rows, cols := torusShape(p, m)
		base = torusSlicer{rows: rows, cols: cols}
		route = func(s, d int) []int { return torusRoute(rows, cols, s, d) }
		detour = func(s, d int) ([]int, error) { return torusDetour(rows, cols, s, d, dead) }
		name = fmt.Sprintf("torus%dx%d", rows, cols)
	case "hypercube":
		if p&(p-1) != 0 {
			return nil, nil, nil, "", fmt.Errorf("sched: hypercube needs a power-of-two rank count, got %d", p)
		}
		k := bits.Len(uint(p)) - 1
		base = hcubeSlicer{p: p, k: k}
		route = func(s, d int) []int { return hypercubeRoute(k, s, d) }
		hd := &hcubeDetour{p: p, k: k, dead: dead, prev: make(map[int][]int32)}
		detour = hd.path
		name = "hypercube"
	default:
		return nil, nil, nil, "", fmt.Errorf("sched: repair supports the route-compiled generators (ring, torus, hypercube), not %q", gen)
	}
	return base, route, detour, name, nil
}

// Repair patches the named route-compiled schedule around a single dead
// rank: dead-endpoint blocks are dropped, transit traffic through the
// dead rank is rerouted on the surviving fabric, and everything else is
// kept verbatim. The result serves per-rank programs for every survivor;
// call Verify to re-prove the patched world.
func Repair(gen string, p, dead int, m *topo.Mapping) (*Repaired, error) {
	if p < 2 {
		return nil, fmt.Errorf("sched: repair needs at least 2 ranks, got %d", p)
	}
	if dead < 0 || dead >= p {
		return nil, fmt.Errorf("sched: dead rank %d out of range 0..%d", dead, p-1)
	}
	base, route, detour, name, err := repairFamily(gen, p, dead, m)
	if err != nil {
		return nil, err
	}

	patch := make(map[int]*rankPatch)
	pat := func(x int) *rankPatch {
		pt := patch[x]
		if pt == nil {
			pt = &rankPatch{}
			patch[x] = pt
		}
		return pt
	}

	// Every block whose path crosses the dead rank arrives there exactly
	// once (routes are simple paths), so ins(dead, ·) enumerates the
	// affected traffic in O(the dead rank's slice).
	nrounds := base.rounds()
	rerouted := 0
	for t := 0; t < base.rounds(); t++ {
		for _, msg := range base.ins(dead, t) {
			for _, b := range msg.blocks {
				s, d := int(b)/p, int(b)%p
				if s == dead || d == dead {
					continue // endpoint block: dropped by the filter
				}
				oldPath := route(s, d)
				newPath, derr := detour(s, d)
				if derr != nil {
					return nil, fmt.Errorf("sched: repair %s p=%d dead=%d block (%d->%d): %w", gen, p, dead, s, d, derr)
				}
				if err := checkDetour(newPath, s, d, dead, p); err != nil {
					return nil, fmt.Errorf("sched: repair %s p=%d dead=%d block (%d->%d): %w", gen, p, dead, s, d, err)
				}
				// Hops identical in both paths (shared prefix before the
				// divergence, and — for the round-preserving detours — the
				// rejoined tail at the same rounds) cancel: skipping them
				// keeps the untouched carriers out of the patch set.
				sameHop := func(h int) bool {
					return h+1 < len(oldPath) && h+1 < len(newPath) &&
						oldPath[h] == newPath[h] && oldPath[h+1] == newPath[h+1]
				}
				// Remove the old hops (those touching the dead rank vanish
				// with the dead-peer filter; the rest are removed by name).
				for h := 0; h+1 < len(oldPath); h++ {
					if sameHop(h) {
						continue
					}
					x, y := oldPath[h], oldPath[h+1]
					if x != dead && y != dead {
						pat(x).remove(false, h, b)
						pat(y).remove(true, h, b)
					}
				}
				for h := 0; h+1 < len(newPath); h++ {
					if sameHop(h) {
						continue
					}
					x, y := newPath[h], newPath[h+1]
					pat(x).add(false, h, y, b)
					pat(y).add(true, h, x, b)
				}
				if hops := len(newPath) - 1; hops > nrounds {
					nrounds = hops
				}
				rerouted++
			}
		}
	}

	sl := &repairSlicer{orig: base, p: p, dead: dead, nrounds: nrounds, patch: patch}
	// The global staging bound: unpatched survivors only lose blocks, so
	// the original packMax still covers them; patched ranks are re-counted
	// exactly.
	mp := base.packMax()
	affected := make([]int, 0, len(patch))
	for x := range patch {
		affected = append(affected, x)
	}
	sort.Ints(affected)
	for _, x := range affected {
		for t := 0; t < nrounds; t++ {
			for _, dir := range [2][]rmsg{sl.outs(x, t), sl.ins(x, t)} {
				n := 0
				for _, m := range dir {
					n += len(m.blocks)
				}
				if n > mp {
					mp = n
				}
			}
		}
	}
	sl.mp = mp

	return &Repaired{
		Gen:         gen,
		Name:        fmt.Sprintf("%s-dead%d", name, dead),
		Ranks:       p,
		Dead:        dead,
		sl:          sl,
		rescheduled: affected,
		dropped:     2 * (p - 1),
		rerouted:    rerouted,
	}, nil
}

// checkDetour validates a detour path before it is trusted: right
// endpoints, in-range simple hops, and no visit to the dead rank.
func checkDetour(path []int, s, d, dead, p int) error {
	if len(path) < 2 || path[0] != s || path[len(path)-1] != d {
		return fmt.Errorf("detour path is invalid: %v", path)
	}
	for h, x := range path {
		if x < 0 || x >= p {
			return fmt.Errorf("detour path leaves the world: %v", path)
		}
		if x == dead {
			return fmt.Errorf("detour path revisits the dead rank: %v", path)
		}
		if h > 0 && x == path[h-1] {
			return fmt.Errorf("detour path has a self-hop: %v", path)
		}
	}
	return nil
}

// Program compiles one survivor's patched program (O(its slice); route
// work was already done at Repair time).
func (r *Repaired) Program(rank int) (*RankProgram, error) {
	if rank < 0 || rank >= r.Ranks {
		return nil, fmt.Errorf("sched: repair %s: rank %d out of range 0..%d", r.Name, rank, r.Ranks-1)
	}
	if rank == r.Dead {
		return nil, fmt.Errorf("sched: repair %s: rank %d is the dead rank", r.Name, rank)
	}
	return compileRank(r.Name, r.Ranks, rank, r.sl), nil
}

// Verify re-proves the repaired world: every survivor's program is
// streamed through a dead-aware StreamVerifier, which checks all local
// properties plus cross-rank round pairing and the shrunken delivery
// accounting (dead blocks must stay undelivered).
func (r *Repaired) Verify() error {
	sv := NewStreamVerifier(r.Ranks)
	if err := sv.SetDead(r.Dead); err != nil {
		return err
	}
	for rank := 0; rank < r.Ranks; rank++ {
		if rank == r.Dead {
			continue
		}
		rp, err := r.Program(rank)
		if err != nil {
			return err
		}
		if err := sv.Add(rp); err != nil {
			return err
		}
	}
	return sv.Finish()
}

// RescheduledRanks lists the ranks whose programs needed route work — the
// carriers of rerouted traffic on the old or new paths. Every other
// survivor's program is a mechanical filter of the original schedule.
func (r *Repaired) RescheduledRanks() []int {
	return append([]int(nil), r.rescheduled...)
}

// DroppedBlocks is the number of pair blocks lost with the dead rank
// (its row and column of the exchange matrix, 2(p-1) wire blocks).
func (r *Repaired) DroppedBlocks() int { return r.dropped }

// ReroutedBlocks is the number of blocks that transited the dead rank
// and were detoured around it.
func (r *Repaired) ReroutedBlocks() int { return r.rerouted }

// Rounds is the repaired exchange round count: the original count, or
// more when the longest detour exceeds it.
func (r *Repaired) Rounds() int { return r.sl.nrounds }

// ---------------------------------------------------------------------
// The patched slicer

// rankPatch is one affected rank's schedule delta: blocks to stop
// carrying (per round and direction) and messages to add.
type rankPatch struct {
	removedOut map[int]map[int32]bool // round -> blocks no longer departing
	removedIn  map[int]map[int32]bool // round -> blocks no longer arriving
	addOut     map[int]map[int][]int32
	addIn      map[int]map[int][]int32
}

func (pt *rankPatch) remove(arrivals bool, t int, b int32) {
	m := &pt.removedOut
	if arrivals {
		m = &pt.removedIn
	}
	if *m == nil {
		*m = make(map[int]map[int32]bool)
	}
	set := (*m)[t]
	if set == nil {
		set = make(map[int32]bool)
		(*m)[t] = set
	}
	set[b] = true
}

func (pt *rankPatch) add(arrivals bool, t, peer int, b int32) {
	m := &pt.addOut
	if arrivals {
		m = &pt.addIn
	}
	if *m == nil {
		*m = make(map[int]map[int][]int32)
	}
	byPeer := (*m)[t]
	if byPeer == nil {
		byPeer = make(map[int][]int32)
		(*m)[t] = byPeer
	}
	byPeer[peer] = append(byPeer[peer], b)
}

// repairSlicer wraps the original topology slicer with the failure
// filter and the per-rank patches, presenting the standard rankSlicer
// view so compileRank emits survivor programs unchanged.
type repairSlicer struct {
	orig    rankSlicer
	p       int
	dead    int
	nrounds int
	mp      int
	patch   map[int]*rankPatch
}

func (s *repairSlicer) rounds() int  { return s.nrounds }
func (s *repairSlicer) packMax() int { return s.mp }

func (s *repairSlicer) traffic(x, t int, arrivals bool) []rmsg {
	var base []rmsg
	if t < s.orig.rounds() {
		if arrivals {
			base = s.orig.ins(x, t)
		} else {
			base = s.orig.outs(x, t)
		}
	}
	var removed map[int32]bool
	var adds map[int][]int32
	if pt := s.patch[x]; pt != nil {
		if arrivals {
			removed, adds = pt.removedIn[t], pt.addIn[t]
		} else {
			removed, adds = pt.removedOut[t], pt.addOut[t]
		}
	}
	byPeer := make(map[int][]int32)
	for _, m := range base {
		if m.peer == s.dead {
			continue
		}
		for _, b := range m.blocks {
			src, dst := int(b)/s.p, int(b)%s.p
			if src == s.dead || dst == s.dead || removed[b] {
				continue
			}
			byPeer[m.peer] = append(byPeer[m.peer], b)
		}
	}
	for peer, blocks := range adds {
		byPeer[peer] = append(byPeer[peer], blocks...)
	}
	return groupMsgs(byPeer)
}

// groupMsgs converts a peer->blocks map into the canonical message order.
func groupMsgs(byPeer map[int][]int32) []rmsg {
	msgs := make([]rmsg, 0, len(byPeer))
	//a2alint:ignore simdet sortMsgs canonicalizes the order before msgs escapes
	for peer, blocks := range byPeer {
		msgs = append(msgs, rmsg{peer: peer, blocks: sortBlocks(blocks)})
	}
	return sortMsgs(msgs)
}

func (s *repairSlicer) outs(x, t int) []rmsg { return s.traffic(x, t, false) }
func (s *repairSlicer) ins(x, t int) []rmsg  { return s.traffic(x, t, true) }

// ---------------------------------------------------------------------
// Detours

// ringDetour is the complementary arc: the ring path the shortest-
// direction rule did not take. The dead rank sits strictly inside the
// original arc, so the complement avoids it by construction. Θ(p) hops —
// the ring has no third way around, which is exactly why the paper's
// direct-connect story moves to richer topologies at scale.
func ringDetour(s, d, p int) []int {
	fwd := (d - s + p) % p
	step, hops := 1, fwd
	if fwd <= p-fwd {
		step, hops = -1, p-fwd
	}
	path := make([]int, 0, hops+1)
	x := s
	path = append(path, x)
	for i := 0; i < hops; i++ {
		x = (x + step + p) % p
		path = append(path, x)
	}
	return path
}

// ringInterior reports whether x lies strictly inside the
// shortest-direction ring path from a to b over n ranks.
func ringInterior(a, b, x, n int) bool {
	fwd := ((b-a)%n + n) % n
	if fwd <= n-fwd {
		off := ((x-a)%n + n) % n
		return 0 < off && off < fwd
	}
	off := ((a-x)%n + n) % n
	return 0 < off && off < n-fwd
}

// ringStep is the step direction (+1/-1) the shortest-direction ring
// rule takes from a to b (ties go forward, matching ringPath).
func ringStep(a, b, n int) int {
	fwd := ((b-a)%n + n) % n
	if fwd > n-fwd {
		return -1
	}
	return 1
}

// torusDetour reroutes a torus block around a dead rank sitting on its
// row-then-column path. The detours are chosen to REJOIN the original
// path at the original rounds whenever the block has a leg in the other
// dimension — that keeps the untouched downstream carriers untouched, so
// the rescheduled set stays a thin neighborhood of the failure (its row
// and column, plus or minus one):
//
//   - dead on the row leg (interior column or the turn corner), block
//     also moves rows: take the first column step early — ride the row
//     arc one row over (in the column direction) and fall onto the
//     original column leg at the same round, same length;
//   - dead on the column leg interior, block also moves columns: hold
//     the last row step — ride the column one column early and make the
//     final row hop at the end, same length;
//   - pure-row or pure-column blocks: the complementary arc of that ring
//     (longer, but confined to the failure's own row/column).
func torusDetour(rows, cols, s, d, dead int) ([]int, error) {
	si, sj := s/cols, s%cols
	di, dj := d/cols, d%cols
	fi, fj := dead/cols, dead%cols
	switch {
	case fi == si && ((fj == dj && si != di) || ringInterior(sj, dj, fj, cols)):
		// Dead on the row leg.
		if si == di {
			// Pure row block: the only other way is the complementary arc.
			path := []int{s}
			for _, j := range ringDetour(sj, dj, cols)[1:] {
				path = append(path, si*cols+j)
			}
			return path, nil
		}
		// Dodge into the adjacent row in the column direction, rejoining
		// the original column leg at the same round.
		delta := ringStep(si, di, rows)
		r1 := ((si+delta)%rows + rows) % rows
		path := []int{s}
		for _, j := range ringPath(sj, dj, cols) {
			path = append(path, r1*cols+j)
		}
		for _, i := range ringPath(si, di, rows)[2:] {
			path = append(path, i*cols+dj)
		}
		return path, nil
	case fj == dj && fi != si && ringInterior(si, di, fi, rows):
		// Dead on the column leg interior.
		if sj == dj {
			// Pure column block: complementary arc.
			path := []int{s}
			for _, i := range ringDetour(si, di, rows)[1:] {
				path = append(path, i*cols+dj)
			}
			return path, nil
		}
		// Hold the last row step: ride the column one column early, then
		// hop into the destination column at the end.
		rowP := ringPath(sj, dj, cols)
		jl := rowP[len(rowP)-2] // the column just before dj on the row arc
		path := make([]int, 0, len(rowP)+rows)
		for _, j := range rowP[:len(rowP)-1] {
			path = append(path, si*cols+j)
		}
		for _, i := range ringPath(si, di, rows)[1:] {
			path = append(path, i*cols+jl)
		}
		path = append(path, di*cols+dj)
		return path, nil
	}
	return nil, fmt.Errorf("dead rank (%d,%d) is not on the route (%d,%d)->(%d,%d)", fi, fj, si, sj, di, dj)
}

// hcubeDetour reroutes hypercube blocks with a per-source BFS over the
// cube minus the dead vertex (memoized: one BFS serves every rerouted
// destination of that source). Removing one vertex of a k>=2 cube keeps
// it connected, and any detour costs at most 2 extra hops.
type hcubeDetour struct {
	p, k, dead int
	prev       map[int][]int32
}

func (h *hcubeDetour) bfs(s int) []int32 {
	prev := make([]int32, h.p)
	for i := range prev {
		prev[i] = -1
	}
	prev[s] = int32(s)
	queue := []int{s}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for b := 0; b < h.k; b++ {
			y := x ^ 1<<b
			if y == h.dead || prev[y] >= 0 {
				continue
			}
			prev[y] = int32(x)
			queue = append(queue, y)
		}
	}
	return prev
}

func (h *hcubeDetour) path(s, d int) ([]int, error) {
	prev, ok := h.prev[s]
	if !ok {
		prev = h.bfs(s)
		h.prev[s] = prev
	}
	if prev[d] < 0 {
		return nil, fmt.Errorf("no surviving route %d->%d", s, d)
	}
	var rev []int
	for x := d; x != s; x = int(prev[x]) {
		rev = append(rev, x)
	}
	rev = append(rev, s)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
