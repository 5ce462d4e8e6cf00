package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
	"alltoallx/internal/trace"
)

// tinyNode is a small 2-socket, 2-NUMA-per-socket, 2-core node: 8 ranks
// per node, enough structure to exercise every locality level.
func tinyNode() topo.Spec { return topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2} }

// liveBody returns the per-rank SPMD body that builds the named algorithm,
// runs the pattern all-to-all twice (persistence check), and verifies.
func liveBody(name string, opts Options, block int) func(c comm.Comm) error {
	return func(c comm.Comm) error {
		p, rank := c.Size(), c.Rank()
		a, err := New(name, c, block, opts)
		if err != nil {
			return err
		}
		send := comm.Alloc(p * block)
		recv := comm.Alloc(p * block)
		testutil.FillAlltoall(send, rank, p, block)
		for iter := 0; iter < 2; iter++ {
			for i := range recv.Bytes() {
				recv.Bytes()[i] = 0xEE
			}
			if err := a.Alltoall(send, recv, block); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			if err := testutil.CheckAlltoall(recv, rank, p, block); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
		}
		return nil
	}
}

func mapping(t *testing.T, nodes, ppn int) *topo.Mapping {
	t.Helper()
	m, err := topo.NewMapping(tinyNode(), nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAlltoallLiveCorrectness runs every algorithm on the live runtime
// across topologies, inner exchanges and block sizes.
func TestAlltoallLiveCorrectness(t *testing.T) {
	t.Parallel()
	type cfg struct {
		name  string
		nodes int
		ppn   int
		opts  Options
		block int
	}
	var cases []cfg
	for _, inner := range []Inner{InnerPairwise, InnerNonblocking, InnerBruck} {
		for _, shape := range []struct{ nodes, ppn int }{{2, 8}, {3, 4}} {
			cases = append(cases,
				cfg{"hierarchical", shape.nodes, shape.ppn, Options{Inner: inner}, 3},
				cfg{"multileader", shape.nodes, shape.ppn, Options{Inner: inner, PPL: 2}, 3},
				cfg{"node-aware", shape.nodes, shape.ppn, Options{Inner: inner}, 3},
				cfg{"locality-aware", shape.nodes, shape.ppn, Options{Inner: inner, PPG: 2}, 3},
				cfg{"multileader-node-aware", shape.nodes, shape.ppn, Options{Inner: inner, PPL: 2}, 3},
			)
		}
	}
	// Node-aware and locality-aware above the eager limit: on 2 x 8 ranks
	// node-aware's inter messages are 72,000 B and its intra messages
	// 18,000 B, so every inner exchange lands by rendezvous through its
	// receive views (locality-aware's sizes are the other way round).
	for _, inner := range []Inner{InnerPairwise, InnerNonblocking, InnerBruck} {
		cases = append(cases,
			cfg{"node-aware", 2, 8, Options{Inner: inner}, 9000},
			cfg{"locality-aware", 2, 8, Options{Inner: inner, PPG: 2}, 9000},
		)
	}
	// Direct algorithms don't use inner exchanges; cover block-size
	// variety (including a rendezvous-sized block) and odd rank counts.
	for _, block := range []int{1, 4, 64, 9000} {
		cases = append(cases,
			cfg{"pairwise", 2, 5, Options{}, block},
			cfg{"nonblocking", 2, 5, Options{}, block},
			cfg{"batched", 2, 5, Options{BatchWindow: 3}, block},
			cfg{"bruck", 2, 5, Options{}, block},
		)
	}
	// Leader/group size sweeps.
	for _, q := range []int{1, 2, 4, 8} {
		cases = append(cases,
			cfg{"multileader", 2, 8, Options{PPL: q}, 2},
			cfg{"locality-aware", 2, 8, Options{PPG: q}, 2},
			cfg{"multileader-node-aware", 2, 8, Options{PPL: q}, 2},
		)
	}
	// System MPI emulation around both cutovers.
	sysOpts := Options{Sys: netmodel.SysProfile{
		SmallAlgo: "bruck", SmallMax: 8,
		MidAlgo: "nonblocking", MidMax: 32,
		LargeAlgo: "pairwise", OverheadScale: 1,
	}}
	cases = append(cases,
		cfg{"system-mpi", 2, 4, sysOpts, 4},
		cfg{"system-mpi", 2, 4, sysOpts, 16},
		cfg{"system-mpi", 2, 4, sysOpts, 64},
	)

	for _, tc := range cases {
		tc := tc
		label := fmt.Sprintf("%s/n%d_ppn%d_b%d_%s_ppl%d_ppg%d",
			tc.name, tc.nodes, tc.ppn, tc.block, tc.opts.Inner, tc.opts.PPL, tc.opts.PPG)
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			m := mapping(t, tc.nodes, tc.ppn)
			if err := runtime.Run(runtime.Config{Mapping: m}, liveBody(tc.name, tc.opts, tc.block)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlltoallSimulatedCorrectness runs every algorithm under the
// discrete-event simulator with real payloads: the virtual-time transport
// must deliver exactly the same bytes as the live one. Node-aware and
// locality-aware also run 9,000 B blocks under an 8 KiB eager limit, so
// every message of their inner exchanges lands by rendezvous.
func TestAlltoallSimulatedCorrectness(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	type simCase struct {
		name  string
		opts  Options
		block int
	}
	cases := []simCase{
		{"pairwise", Options{}, 7},
		{"nonblocking", Options{}, 7},
		{"batched", Options{BatchWindow: 4}, 7},
		{"bruck", Options{}, 7},
		{"hierarchical", Options{}, 7},
		{"multileader", Options{PPL: 2}, 7},
		{"node-aware", Options{}, 7},
		{"locality-aware", Options{PPG: 2}, 7},
		{"multileader-node-aware", Options{PPL: 2}, 7},
		{"multileader-node-aware/nonblocking", Options{PPL: 4, Inner: InnerNonblocking}, 7},
		{"locality-aware/bruck", Options{PPG: 4, Inner: InnerBruck}, 7},
	}
	for _, inner := range []Inner{InnerPairwise, InnerNonblocking, InnerBruck} {
		cases = append(cases,
			simCase{"node-aware/" + string(inner) + "/9000B", Options{Inner: inner}, 9000},
			simCase{"locality-aware/" + string(inner) + "/9000B", Options{Inner: inner, PPG: 2}, 9000},
		)
	}
	rendezvous := model
	rendezvous.EagerMax = 8 << 10
	for _, tc := range cases {
		tc := tc
		algo := tc.name
		if i := indexByte(algo, '/'); i >= 0 {
			algo = algo[:i]
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.ClusterConfig{Model: model, Nodes: 3, PPN: 8, Seed: 42}
			if tc.block > rendezvous.EagerMax {
				cfg.Model = rendezvous
			}
			_, err := sim.RunCluster(cfg, liveBody(algo, tc.opts, tc.block))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// TestAlltoallVirtualRuns checks that virtual (payload-free) buffers —
// the mode used for paper-scale figures — model exactly what real ones
// do. Every loop-coded algorithm, and system-mpi, runs once on real and
// once on virtual buffers with the same seed on a 12-rank world (not a
// power of two, so Bruck packs a short last run). Both runs must give
// every rank bit-identical modeled time and the simulator the same event
// and message counts; the real run must deliver the right bytes.
func TestAlltoallVirtualRuns(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	opts := Options{PPL: 2, PPG: 2, Sys: model.Sys}
	for _, name := range []string{
		"pairwise", "nonblocking", "batched", "bruck",
		"hierarchical", "multileader", "node-aware", "locality-aware", "multileader-node-aware",
		"system-mpi",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const block = 64
			cfg := sim.ClusterConfig{Model: model, Nodes: 3, PPN: 4, Seed: 7}
			run := func(virtual bool) ([]float64, sim.Stats) {
				ends := make([]float64, cfg.Nodes*cfg.PPN)
				stats, err := sim.RunCluster(cfg, func(c comm.Comm) error {
					a, err := New(name, c, block, opts)
					if err != nil {
						return err
					}
					p, rank := c.Size(), c.Rank()
					send, recv := comm.Virtual(p*block), comm.Virtual(p*block)
					if !virtual {
						send, recv = comm.Alloc(p*block), comm.Alloc(p*block)
						testutil.FillAlltoall(send, rank, p, block)
					}
					if err := a.Alltoall(send, recv, block); err != nil {
						return err
					}
					ends[rank] = c.Now()
					if virtual {
						return nil
					}
					return testutil.CheckAlltoall(recv, rank, p, block)
				})
				if err != nil {
					t.Fatalf("virtual=%v: %v", virtual, err)
				}
				return ends, stats
			}
			realEnds, realStats := run(false)
			virtEnds, virtStats := run(true)
			if virtStats.VirtualSeconds <= 0 {
				t.Fatalf("virtual run advanced no time: %+v", virtStats)
			}
			for r := range realEnds {
				if math.Float64bits(realEnds[r]) != math.Float64bits(virtEnds[r]) {
					t.Errorf("rank %d finished at %v with real buffers, %v with virtual", r, realEnds[r], virtEnds[r])
				}
			}
			if realStats.Events != virtStats.Events || realStats.Messages != virtStats.Messages {
				t.Errorf("real run: %d events, %d messages; virtual run: %d events, %d messages",
					realStats.Events, realStats.Messages, virtStats.Events, virtStats.Messages)
			}
		})
	}
}

// TestNodeAwareModeledGolden pins the modeled time of the paper's leader
// algorithms (node-aware, locality-aware with PPG 2, hierarchical,
// multileader and multileader-node-aware with PPL 2) with each inner
// exchange on TestAlltoallVirtualRuns's world with real 64 B blocks: every
// rank's end time and rank 0's phases, at full precision
// (testdata/nodeaware_modeled.golden, no -update: a data-movement change
// must not move the model, and a model change pastes the printed lines
// over the file and says why in CHANGES.md).
func TestNodeAwareModeledGolden(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	var got bytes.Buffer
	for _, algo := range []string{"node-aware", "locality-aware", "hierarchical", "multileader", "multileader-node-aware"} {
		for _, inner := range []Inner{InnerPairwise, InnerNonblocking, InnerBruck} {
			const block = 64
			cfg := sim.ClusterConfig{Model: model, Nodes: 3, PPN: 4, Seed: 7}
			ends := make([]float64, cfg.Nodes*cfg.PPN)
			var phases map[trace.Phase]float64
			_, err := sim.RunCluster(cfg, func(c comm.Comm) error {
				a, err := New(algo, c, block, Options{PPG: 2, PPL: 2, Inner: inner})
				if err != nil {
					return err
				}
				p, rank := c.Size(), c.Rank()
				send, recv := comm.Alloc(p*block), comm.Alloc(p*block)
				testutil.FillAlltoall(send, rank, p, block)
				if err := a.Alltoall(send, recv, block); err != nil {
					return err
				}
				ends[rank] = c.Now()
				if rank == 0 {
					phases = a.Phases()
				}
				return testutil.CheckAlltoall(recv, rank, p, block)
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, inner, err)
			}
			fmt.Fprintf(&got, "%s/%s\n", algo, inner)
			for r, end := range ends {
				fmt.Fprintf(&got, "end %d %.17g\n", r, end)
			}
			names := make([]string, 0, len(phases))
			for ph := range phases {
				names = append(names, string(ph))
			}
			sort.Strings(names)
			for _, ph := range names {
				fmt.Fprintf(&got, "phase %s %.17g\n", ph, phases[trace.Phase(ph)])
			}
		}
	}
	path := filepath.Join("testdata", "nodeaware_modeled.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s: modeled time changed:\n%s", path, got.Bytes())
	}
}

// TestNewErrors covers construction validation.
func TestNewErrors(t *testing.T) {
	t.Parallel()
	m := mapping(t, 2, 8)
	err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		if _, err := New("no-such-algo", c, 8, Options{}); err == nil {
			return fmt.Errorf("expected error for unknown algorithm")
		}
		if _, err := New("pairwise", c, 0, Options{}); err == nil {
			return fmt.Errorf("expected error for zero maxBlock")
		}
		if _, err := New("multileader", c, 8, Options{PPL: 3}); err == nil {
			return fmt.Errorf("expected error for PPL not dividing ppn")
		}
		if _, err := New("locality-aware", c, 8, Options{PPG: 16}); err == nil {
			return fmt.Errorf("expected error for PPG > ppn")
		}
		if _, err := New("system-mpi", c, 8, Options{}); err == nil {
			return fmt.Errorf("expected error for system-mpi without profile")
		}
		a, err := New("pairwise", c, 8, Options{})
		if err != nil {
			return err
		}
		send := comm.Alloc(c.Size() * 8)
		recv := comm.Alloc(c.Size() * 8)
		if err := a.Alltoall(send, recv, 16); err == nil {
			return fmt.Errorf("expected error for block > maxBlock")
		}
		if err := a.Alltoall(send.Slice(0, 4), recv, 8); err == nil {
			return fmt.Errorf("expected error for short send buffer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoTopology ensures topology-aware algorithms refuse communicators
// without a mapping.
func TestNoTopology(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 4}, func(c comm.Comm) error {
		for _, name := range []string{"hierarchical", "node-aware", "multileader", "locality-aware", "multileader-node-aware"} {
			if _, err := New(name, c, 4, Options{PPL: 1, PPG: 1}); err == nil {
				return fmt.Errorf("%s: expected topology error", name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhasesRecorded checks that hierarchical algorithms expose the phase
// breakdown the paper's Figures 13-16 report.
func TestPhasesRecorded(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	phasesByRank := make([]map[trace.Phase]float64, 16)
	cfg := sim.ClusterConfig{Model: model, Nodes: 2, PPN: 8, Seed: 3}
	_, err := sim.RunCluster(cfg, func(c comm.Comm) error {
		a, err := New("node-aware", c, 8, Options{})
		if err != nil {
			return err
		}
		send := comm.Virtual(c.Size() * 8)
		recv := comm.Virtual(c.Size() * 8)
		if err := a.Alltoall(send, recv, 8); err != nil {
			return err
		}
		phasesByRank[c.Rank()] = a.Phases()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := trace.MaxMerge(phasesByRank)
	for _, ph := range []trace.Phase{trace.PhaseInter, trace.PhaseIntra, trace.PhaseRepack, trace.PhaseTotal} {
		if merged[ph] <= 0 {
			t.Errorf("phase %s not recorded: %v", ph, merged)
		}
	}
	if merged[trace.PhaseTotal] < merged[trace.PhaseInter] {
		t.Errorf("total %g < inter %g", merged[trace.PhaseTotal], merged[trace.PhaseInter])
	}
}

// TestNames checks registry completeness.
func TestNames(t *testing.T) {
	t.Parallel()
	want := []string{"batched", "bruck", "hierarchical", "locality-aware", "multileader",
		"multileader-node-aware", "node-aware", "nonblocking", "pairwise",
		"sched:bruck", "sched:direct", "sched:hypercube", "sched:pairwise", "sched:ring", "sched:torus",
		"system-mpi", "tuned"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDivisibilityErrorsNameOption: a PPL/PPG that does not divide the
// node's rank count must fail construction with an error naming the
// offending Options field and the node shape (so a user can fix the
// right knob without reading the source).
func TestDivisibilityErrorsNameOption(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo string
		opts Options
		want []string
	}{
		{"multileader", Options{PPL: 3}, []string{"Options.PPL=3", "2 nodes x 8 ranks/node", "1 2 4 8"}},
		{"multileader", Options{PPL: 16}, []string{"Options.PPL=16", "8 ranks per node"}},
		{"multileader", Options{PPL: -2}, []string{"Options.PPL=-2"}},
		{"locality-aware", Options{PPG: 5}, []string{"Options.PPG=5", "2 nodes x 8 ranks/node"}},
		{"multileader-node-aware", Options{PPL: 6}, []string{"Options.PPL=6"}},
	}
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		for _, tc := range cases {
			_, err := New(tc.algo, c, 8, tc.opts)
			if err == nil {
				return fmt.Errorf("%s with %+v: accepted", tc.algo, tc.opts)
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					return fmt.Errorf("%s with %+v: error %q does not mention %q", tc.algo, tc.opts, err, frag)
				}
			}
		}
		// The v-registry reports through the same path.
		if _, err := NewV("locality-aware", c, 8, Options{PPG: 7}); err == nil ||
			!strings.Contains(err.Error(), "Options.PPG=7") {
			return fmt.Errorf("NewV locality-aware PPG=7: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
