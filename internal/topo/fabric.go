package topo

import (
	"fmt"
	"math/bits"
	"sort"
)

// Fabric is a direct-connect inter-node interconnect: a set of directed
// links between nodes plus a deterministic minimal route between any two
// nodes. It is the shape the flow-level contention model (internal/sim)
// and the schedule link-load analysis (internal/sched) share: the
// static analysis folds a schedule's per-round message matrix onto the
// same links — so what a2asched print -linkload shows before execution
// is exactly the load the simulator charges during it. The simulator
// books every message onto the links its route traverses.
//
// Three kinds mirror the sched:* schedule family (Basu et al.):
//
//   - "ring": node i links to i±1 (mod n); routes take the shortest
//     direction, ties at n/2 going forward.
//   - "torus": a rows x cols grid (NewTorus; NewFabric takes the
//     most-square factorization of n); links to the four grid
//     neighbours (wrapping); dimension-ordered routing, columns first
//     within the row ring, then rows — matching the row-then-column
//     block routes of the sched torus generator.
//   - "hypercube": n must be a power of two; node i links to i^(1<<b)
//     for every address bit b; routes fix differing bits in ascending
//     order.
//
// A Fabric models the switched/routed fabric itself: transit traffic is
// forwarded by the links without re-crossing the intermediate nodes' NICs
// (the NICs stay the injection/ejection resources they are in the
// analytic model).
type Fabric struct {
	kind  string
	nodes int
	rows  int // torus
	cols  int // torus
	ids   map[[2]int]int
	edges [][2]int
}

// FabricKinds returns the supported fabric kind names, sorted.
func FabricKinds() []string { return []string{"hypercube", "ring", "torus"} }

// NewFabric builds the named fabric over n nodes. A single-node fabric is
// valid and has no links.
func NewFabric(kind string, nodes int) (*Fabric, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("topo: fabric needs a positive node count, got %d", nodes)
	}
	if kind == "torus" {
		return NewTorus(torusGrid(nodes))
	}
	f := &Fabric{kind: kind, nodes: nodes, ids: make(map[[2]int]int)}
	switch kind {
	case "ring":
		for i := 0; i < nodes; i++ {
			f.addEdge(i, (i+1)%nodes)
			f.addEdge(i, (i-1+nodes)%nodes)
		}
	case "hypercube":
		if nodes&(nodes-1) != 0 {
			return nil, fmt.Errorf("topo: hypercube fabric needs a power-of-two node count, got %d", nodes)
		}
		for i := 0; i < nodes; i++ {
			for b := 1; b < nodes; b <<= 1 {
				f.addEdge(i, i^b)
			}
		}
	default:
		return nil, fmt.Errorf("topo: unknown fabric kind %q (have %v)", kind, FabricKinds())
	}
	return f, nil
}

// NewTorus builds the torus fabric over a rows x cols grid: node i sits
// at row i/cols, column i%cols.
func NewTorus(rows, cols int) (*Fabric, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topo: torus fabric needs a positive grid, got %dx%d", rows, cols)
	}
	nodes := rows * cols
	f := &Fabric{kind: "torus", nodes: nodes, rows: rows, cols: cols, ids: make(map[[2]int]int)}
	for i := 0; i < nodes; i++ {
		r, c := i/cols, i%cols
		f.addEdge(i, r*cols+(c+1)%cols)
		f.addEdge(i, r*cols+(c-1+cols)%cols)
		f.addEdge(i, ((r+1)%rows)*cols+c)
		f.addEdge(i, ((r-1+rows)%rows)*cols+c)
	}
	return f, nil
}

// addEdge registers the directed edge a->b once (self-edges and
// duplicates — a 2-ring's two directions collapse onto one neighbour —
// are dropped).
func (f *Fabric) addEdge(a, b int) {
	if a == b {
		return
	}
	k := [2]int{a, b}
	if _, ok := f.ids[k]; ok {
		return
	}
	f.ids[k] = len(f.edges)
	f.edges = append(f.edges, k)
}

// torusGrid returns the most-square rows x cols factorization of n
// (rows <= cols), the same decomposition the sched torus generator falls
// back to without a topology.
func torusGrid(n int) (rows, cols int) {
	rows = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return rows, n / rows
}

// Kind returns the fabric kind name.
func (f *Fabric) Kind() string { return f.kind }

// Nodes returns the node count.
func (f *Fabric) Nodes() int { return f.nodes }

// Links returns the number of directed links.
func (f *Fabric) Links() int { return len(f.edges) }

// Edge returns the endpoints of directed link id.
func (f *Fabric) Edge(id int) (from, to int) {
	e := f.edges[id]
	return e[0], e[1]
}

// LinkID returns the id of the directed link a->b, or false when the
// fabric has no such link.
func (f *Fabric) LinkID(a, b int) (int, bool) {
	id, ok := f.ids[[2]int{a, b}]
	return id, ok
}

// SortedLinks returns all directed link ids ordered by (from, to) — the
// deterministic order reports and golden files render in.
func (f *Fabric) SortedLinks() []int {
	out := make([]int, len(f.edges))
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := f.edges[out[i]], f.edges[out[j]]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	return out
}

// ringHops returns the signed step (+1/-1) and hop count of the shortest
// ring route a->b over n positions (ties go forward).
func ringHops(a, b, n int) (step, hops int) {
	fwd := (b - a + n) % n
	if fwd <= n-fwd {
		return 1, fwd
	}
	return -1, n - fwd
}

// Route returns the minimal node path a = v0, ..., vk = b the fabric
// routes a message along (deterministic; consecutive nodes are linked).
// Route(a, a) is the single-node path.
func (f *Fabric) Route(a, b int) []int {
	path := []int{a}
	switch f.kind {
	case "ring":
		step, hops := ringHops(a, b, f.nodes)
		x := a
		for i := 0; i < hops; i++ {
			x = (x + step + f.nodes) % f.nodes
			path = append(path, x)
		}
	case "torus":
		ar, ac := a/f.cols, a%f.cols
		br, bc := b/f.cols, b%f.cols
		step, hops := ringHops(ac, bc, f.cols)
		c := ac
		for i := 0; i < hops; i++ {
			c = (c + step + f.cols) % f.cols
			path = append(path, ar*f.cols+c)
		}
		step, hops = ringHops(ar, br, f.rows)
		r := ar
		for i := 0; i < hops; i++ {
			r = (r + step + f.rows) % f.rows
			path = append(path, r*f.cols+bc)
		}
	case "hypercube":
		x := a
		for b0 := 0; b0 < bits.Len(uint(f.nodes-1)); b0++ {
			if (x^b)&(1<<b0) != 0 {
				x ^= 1 << b0
				path = append(path, x)
			}
		}
	}
	return path
}

// RouteLinks returns the directed link ids the route a->b traverses, in
// order (empty for a == b).
func (f *Fabric) RouteLinks(a, b int) []int {
	path := f.Route(a, b)
	links := make([]int, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		id, ok := f.LinkID(path[i], path[i+1])
		if !ok {
			// Route construction only steps along edges; reaching here is a
			// Fabric bug, so fail loudly rather than under-counting load.
			panic(fmt.Sprintf("topo: fabric %s route %d->%d uses missing link %d->%d",
				f.kind, a, b, path[i], path[i+1]))
		}
		links = append(links, id)
	}
	return links
}

func (f *Fabric) String() string {
	if f.kind == "torus" {
		return fmt.Sprintf("torus %dx%d (%d nodes, %d links)", f.rows, f.cols, f.nodes, len(f.edges))
	}
	return fmt.Sprintf("%s (%d nodes, %d links)", f.kind, f.nodes, len(f.edges))
}
