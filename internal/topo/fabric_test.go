package topo

import (
	"math/rand"
	"testing"
)

func TestFabricValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewFabric("ring", 0); err == nil {
		t.Error("zero-node fabric accepted")
	}
	if _, err := NewFabric("mesh", 4); err == nil {
		t.Error("unknown fabric kind accepted")
	}
	if _, err := NewFabric("hypercube", 6); err == nil {
		t.Error("non-power-of-two hypercube accepted")
	}
	for _, kind := range FabricKinds() {
		if _, err := NewFabric(kind, 1); err != nil {
			t.Errorf("single-node %s rejected: %v", kind, err)
		}
	}
	for _, g := range [][2]int{{0, 4}, {4, 0}, {-2, -4}} {
		if _, err := NewTorus(g[0], g[1]); err == nil {
			t.Errorf("%dx%d torus accepted", g[0], g[1])
		}
	}
}

func TestFabricLinkCounts(t *testing.T) {
	t.Parallel()
	cases := []struct {
		kind  string
		nodes int
		links int
	}{
		{"ring", 2, 2},  // the two directions collapse onto one neighbour pair
		{"ring", 8, 16}, // 2 directed links per node
		{"torus", 16, 64},
		{"torus", 12, 48},    // 3x4 grid
		{"hypercube", 8, 24}, // log2(8) = 3 links per node, directed
		{"hypercube", 1, 0},
	}
	for _, c := range cases {
		f, err := NewFabric(c.kind, c.nodes)
		if err != nil {
			t.Fatalf("%s@%d: %v", c.kind, c.nodes, err)
		}
		if f.Links() != c.links {
			t.Errorf("%s@%d: %d links, want %d", c.kind, c.nodes, f.Links(), c.links)
		}
	}
}

// TestFabricRoutesAreMinimalAndLinked is the property test: for every
// kind at several sizes, every route starts and ends at its endpoints,
// steps only along registered links, never revisits a node, and matches
// the topology's shortest-path distance.
func TestFabricRoutesAreMinimalAndLinked(t *testing.T) {
	t.Parallel()
	var fabrics []*Fabric
	for _, c := range []struct {
		kind  string
		nodes int
	}{
		{"ring", 2}, {"ring", 5}, {"ring", 8},
		{"torus", 4}, {"torus", 12}, {"torus", 16},
		{"hypercube", 2}, {"hypercube", 8}, {"hypercube", 16},
	} {
		f, err := NewFabric(c.kind, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, f)
	}
	// Torus grids other than the most-square one.
	for _, g := range [][2]int{{8, 4}, {2, 16}, {4, 3}} {
		f, err := NewTorus(g[0], g[1])
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, f)
	}
	for _, f := range fabrics {
		dist := bfsDistances(f)
		for a := 0; a < f.Nodes(); a++ {
			for b := 0; b < f.Nodes(); b++ {
				path := f.Route(a, b)
				if path[0] != a || path[len(path)-1] != b {
					t.Fatalf("%s route %d->%d has wrong endpoints: %v", f, a, b, path)
				}
				if got, want := len(path)-1, dist[a][b]; got != want {
					t.Errorf("%s route %d->%d takes %d hops, shortest is %d", f, a, b, got, want)
				}
				seen := map[int]bool{a: true}
				for i := 1; i < len(path); i++ {
					if _, ok := f.LinkID(path[i-1], path[i]); !ok {
						t.Fatalf("%s route %d->%d uses missing link %d->%d", f, a, b, path[i-1], path[i])
					}
					if seen[path[i]] {
						t.Fatalf("%s route %d->%d revisits node %d", f, a, b, path[i])
					}
					seen[path[i]] = true
				}
				if links := f.RouteLinks(a, b); len(links) != len(path)-1 {
					t.Fatalf("%s RouteLinks(%d,%d) has %d links for a %d-hop path", f, a, b, len(links), len(path)-1)
				}
			}
		}
	}
}

// bfsDistances computes all-pairs shortest hop counts over the fabric's
// links — the oracle Route is checked against.
func bfsDistances(f *Fabric) [][]int {
	n := f.Nodes()
	adj := make([][]int, n)
	for id := 0; id < f.Links(); id++ {
		a, b := f.Edge(id)
		adj[a] = append(adj[a], b)
	}
	dist := make([][]int, n)
	for s := 0; s < n; s++ {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if d[y] < 0 {
					d[y] = d[x] + 1
					queue = append(queue, y)
				}
			}
		}
		dist[s] = d
	}
	return dist
}

func TestFabricEdgeIDsRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for _, kind := range FabricKinds() {
		n := 16
		f, err := NewFabric(kind, n)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < f.Links(); id++ {
			a, b := f.Edge(id)
			got, ok := f.LinkID(a, b)
			if !ok || got != id {
				t.Errorf("%s: Edge(%d) = %d->%d but LinkID maps it to %d (ok=%v)", f, id, a, b, got, ok)
			}
		}
		if ids := f.SortedLinks(); len(ids) != f.Links() {
			t.Errorf("%s: SortedLinks has %d entries, want %d", f, len(ids), f.Links())
		}
		// LinkID on random non-adjacent pairs must miss rather than invent.
		for i := 0; i < 50; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if _, ok := f.LinkID(a, b); ok {
				if len(f.Route(a, b)) != 2 {
					t.Errorf("%s: LinkID(%d,%d) exists but nodes are not adjacent", f, a, b)
				}
			}
		}
	}
}
