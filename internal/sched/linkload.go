package sched

import (
	"fmt"
	"strings"

	"alltoallx/internal/topo"
)

// This file is the static half of the flow-level contention model's
// observability: it folds a world's per-round message matrices onto
// the directed links of a topo.Fabric — the same routes the simulator
// books flows on — so a schedule's link pressure can be inspected
// (a2asched print -linkload) before anything runs; the tests pin it
// against the bytes the simulator books on each link.

// LinkLoads computes a world's static per-round link loads over a
// fabric: loads[ri][id] is the number of blocks round ri routes across
// directed link id. With a nil mapping each rank is its own node (the
// fabric must then have exactly one node per rank); with a mapping,
// ranks fold onto their nodes and intra-node traffic is excluded.
func LinkLoads(world []*RankProgram, f *topo.Fabric, m *topo.Mapping) ([][]int, error) {
	p := len(world)
	nodeOf := func(r int) int { return r }
	if m != nil {
		if m.Size() != p {
			return nil, fmt.Errorf("sched: link load needs a mapping of %d ranks, got %d", p, m.Size())
		}
		if m.Nodes() != f.Nodes() {
			return nil, fmt.Errorf("sched: mapping spans %d nodes but the fabric has %d", m.Nodes(), f.Nodes())
		}
		nodeOf = m.NodeOf
	} else if f.Nodes() != p {
		return nil, fmt.Errorf("sched: without a mapping each rank is a node, so a %d-rank schedule needs a %d-node fabric, got %d", p, p, f.Nodes())
	}
	loads := make([][]int, len(world[0].Rounds))
	for ri := range loads {
		load := make([]int, f.Links())
		for src, row := range RoundMatrix(world, ri) {
			for dst, blocks := range row {
				a, b := nodeOf(src), nodeOf(dst)
				if blocks == 0 || a == b {
					continue // intra-node traffic never touches the fabric
				}
				for _, id := range f.RouteLinks(a, b) {
					load[id] += blocks
				}
			}
		}
		loads[ri] = load
	}
	return loads, nil
}

// FormatLinkLoads renders per-round link loads deterministically: a
// per-round summary (total link-blocks, links used, the hottest link)
// followed by every loaded link in (from, to) order. The golden files
// under testdata pin this format.
func FormatLinkLoads(f *topo.Fabric, loads [][]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "link load over %s\n", f)
	ids := f.SortedLinks()
	for ri, load := range loads {
		total, max, used := 0, 0, 0
		for _, v := range load {
			total += v
			if v > max {
				max = v
			}
			if v > 0 {
				used++
			}
		}
		fmt.Fprintf(&b, "round %d: %d link-blocks on %d/%d links, max %d\n", ri, total, used, len(load), max)
		for _, id := range ids {
			if load[id] == 0 {
				continue
			}
			from, to := f.Edge(id)
			fmt.Fprintf(&b, "  %3d->%-3d %d\n", from, to, load[id])
		}
	}
	return b.String()
}
