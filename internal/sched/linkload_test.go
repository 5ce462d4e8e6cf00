package sched

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
)

// update regenerates the golden link-load renderings:
//
//	go test ./internal/sched -run TestLinkLoadGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestLinkLoadGolden pins the deterministic rendering of the static
// link-load analysis for the three sched:* topologies at small worlds —
// the exact text a2asched print -linkload shows.
func TestLinkLoadGolden(t *testing.T) {
	t.Parallel()
	cases := []struct {
		gen    string
		fabric string
		ranks  int
		file   string
	}{
		{"ring", "ring", 8, "linkload_ring8.golden"},
		{"torus", "torus", 16, "linkload_torus4x4.golden"},
		{"hypercube", "hypercube", 8, "linkload_hypercube8.golden"},
	}
	for _, c := range cases {
		s, err := Generate(c.gen, c.ranks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(s); err != nil {
			t.Fatal(err)
		}
		f, err := topo.NewFabric(c.fabric, c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		loads, err := LinkLoads(s, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := FormatLinkLoads(f, loads)
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", path, err)
		}
		if got != string(want) {
			t.Errorf("%s: link-load rendering changed; diff against %s or regenerate with -update:\n%s",
				c.gen, path, got)
		}
	}
}

// TestLinkLoadsValidation pins the shape checks: mismatched mapping size,
// mismatched fabric node count, and the no-mapping one-rank-per-node rule.
func TestLinkLoadsValidation(t *testing.T) {
	t.Parallel()
	s, err := Generate("ring", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	f4, _ := topo.NewFabric("ring", 4)
	if _, err := LinkLoads(s, f4, nil); err == nil {
		t.Error("8-rank schedule over a 4-node fabric without a mapping accepted")
	}
	spec := topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: 2}
	m, err := topo.NewMapping(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LinkLoads(s, f4, m); err != nil {
		t.Errorf("matching mapping rejected: %v", err)
	}
	f8, _ := topo.NewFabric("ring", 8)
	if _, err := LinkLoads(s, f8, m); err == nil {
		t.Error("mapping over 4 nodes accepted against an 8-node fabric")
	}
	mBig, err := topo.NewMapping(spec, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LinkLoads(s, f8, mBig); err == nil {
		t.Error("16-rank mapping accepted for an 8-rank schedule")
	}
}

// TestLoadRecordMatchesStatic executes schedules on the live runtime with
// a shared LoadRecord and checks the recorded traffic folds onto the
// fabric exactly as the static analysis predicts.
func TestLoadRecordMatchesStatic(t *testing.T) {
	t.Parallel()
	for _, gen := range []string{"pairwise", "bruck", "ring"} {
		const ranks, block = 8, 64
		s, err := Generate(gen, ranks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(s); err != nil {
			t.Fatal(err)
		}
		lr := NewLoadRecord(ranks)
		err = runtime.Run(runtime.Config{Ranks: ranks}, func(c comm.Comm) error {
			ex, err := rankExec(s, c.Rank())
			if err != nil {
				return err
			}
			ex.SetLoadRecord(lr)
			send := comm.Alloc(ranks * block)
			recv := comm.Alloc(ranks * block)
			return ex.Run(c, send, recv, block, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		// A trailing copies-only round (bruck's reorder phase) records no
		// sends, so the record may be shorter than the schedule — never
		// longer. Matrix returns zeros past the recorded range, matching
		// the schedule's empty send matrix there.
		if lr.Rounds() > len(s.Rounds) {
			t.Fatalf("%s: recorded %d rounds, schedule has %d", gen, lr.Rounds(), len(s.Rounds))
		}
		for ri := range s.Rounds {
			want := s.RoundMatrix(ri)
			got := lr.Matrix(ri)
			for src := range want {
				for dst := range want[src] {
					if want[src][dst] != got[src][dst] {
						t.Errorf("%s round %d: %d->%d recorded %d blocks, schedule says %d",
							gen, ri, src, dst, got[src][dst], want[src][dst])
					}
				}
			}
		}
		f, err := topo.NewFabric("ring", ranks)
		if err != nil {
			t.Fatal(err)
		}
		stat, err := LinkLoads(s, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := lr.LinkLoads(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ri := range stat {
			for id := range stat[ri] {
				rec := 0
				if ri < len(dyn) {
					rec = dyn[ri][id]
				}
				if stat[ri][id] != rec {
					t.Errorf("%s round %d link %d: static %d blocks, recorded %d",
						gen, ri, id, stat[ri][id], rec)
				}
			}
		}
	}
}

// TestLinkLoadsMatchSimulatedFlows ties the static analysis to the
// flow-level simulator: running a schedule under a fabric must book, per
// round, exactly block * (static link-blocks) bytes onto the links —
// the "-linkload preview is what the simulator charges" contract.
func TestLinkLoadsMatchSimulatedFlows(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: 2}
	const (
		nodes = 4
		ppn   = 2
		block = 2048
	)
	ranks := nodes * ppn
	mapping, err := topo.NewMapping(model.Node, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ gen, fabric string }{
		{"pairwise", "ring"},
		{"ring", "ring"},
		{"torus", "torus"},
		{"hypercube", "hypercube"},
	} {
		s, err := Generate(c.gen, ranks, mapping)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(s); err != nil {
			t.Fatal(err)
		}
		f, err := topo.NewFabric(c.fabric, nodes)
		if err != nil {
			t.Fatal(err)
		}
		loads, err := LinkLoads(s, f, mapping)
		if err != nil {
			t.Fatal(err)
		}
		var rep *sim.FlowReport
		cfg := sim.ClusterConfig{Model: model, Nodes: nodes, PPN: ppn, Seed: 2, Fabric: c.fabric}
		_, err = sim.RunClusterDebug(cfg, func(cm comm.Comm) error {
			ex, err := rankExec(s, cm.Rank())
			if err != nil {
				return err
			}
			send := comm.Virtual(ranks * block)
			recv := comm.Virtual(ranks * block)
			return ex.Run(cm, send, recv, block, nil)
		}, func(net *sim.Network, final float64) {
			rep = net.FlowReport()
		})
		if err != nil {
			t.Fatal(err)
		}
		for ri := range s.Rounds {
			var want int64
			for _, v := range loads[ri] {
				want += int64(v) * block
			}
			got := rep.Rounds[TagBase+ri].LinkBytes
			if got != want {
				t.Errorf("%s over %s, round %d: simulator booked %d link-bytes, static analysis says %d",
					c.gen, c.fabric, ri, got, want)
			}
		}
		var total, fromRounds int64
		for _, l := range rep.Links {
			total += l.BytesEnqueued
		}
		for _, rc := range rep.Rounds {
			fromRounds += rc.LinkBytes
		}
		if total != fromRounds {
			t.Errorf("%s over %s: per-link bytes %d != per-round bytes %d", c.gen, c.fabric, total, fromRounds)
		}
	}
}
