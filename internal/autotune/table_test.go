package autotune

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
)

// buildTestTable tunes a small world with two candidates; tests share it
// via the bench layer's measurement cache, so repeated builds are cheap.
func buildTestTable(t *testing.T, sizes []int) *Table {
	t.Helper()
	cands := []Candidate{
		{Name: "node-aware", Algo: "node-aware"},
		{Name: "mlna", Algo: "multileader-node-aware", Opts: core.Options{PPL: 2}},
	}
	tbl, err := BuildTable(tinyDane(), core.OpAlltoall, 4, 8, sizes, cands, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	tbl := buildTestTable(t, []int{16, 1024})
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl, loaded) {
		t.Errorf("round trip changed the table:\nsaved  %+v\nloaded %+v", tbl, loaded)
	}
	// A loaded table must be immediately dispatchable.
	if err := loaded.Dispatch().Validate(); err != nil {
		t.Errorf("loaded table not dispatchable: %v", err)
	}
}

func TestTableLoadRejects(t *testing.T) {
	t.Parallel()
	tbl := buildTestTable(t, []int{16, 1024})
	dir := t.TempDir()

	save := func(name string, mutate func(*Table)) string {
		t.Helper()
		c := *tbl
		c.Entries = append([]Entry(nil), tbl.Entries...)
		mutate(&c)
		path := filepath.Join(dir, name)
		// Bypass Save's own validation: encode directly.
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Encode(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cases := []struct {
		name   string
		mutate func(*Table)
		want   string
	}{
		{"version.json", func(c *Table) { c.Version = TableVersion + 1 }, "version"},
		{"nomachine.json", func(c *Table) { c.Machine = "" }, "machine"},
		{"badworld.json", func(c *Table) { c.Nodes = 0 }, "invalid"},
		{"empty.json", func(c *Table) { c.Entries = nil }, "no entries"},
		{"unsorted.json", func(c *Table) {
			c.Entries[0], c.Entries[1] = c.Entries[1], c.Entries[0]
		}, "ascending"},
		{"badalgo.json", func(c *Table) { c.Entries[0].Algo = "no-such" }, "unknown algorithm"},
	}
	for _, tc := range cases {
		path := save(tc.name, tc.mutate)
		_, err := Load(path)
		if err == nil {
			t.Errorf("%s: corrupted table accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	garbled := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(garbled); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTableCheckWorld(t *testing.T) {
	t.Parallel()
	tbl := buildTestTable(t, []int{64})
	if err := tbl.CheckWorld("Dane", 4, 8); err != nil {
		t.Errorf("matching world rejected: %v", err)
	}
	for _, w := range []struct {
		machine    string
		nodes, ppn int
	}{
		{"Amber", 4, 8}, {"Dane", 8, 8}, {"Dane", 4, 16},
	} {
		if err := tbl.CheckWorld(w.machine, w.nodes, w.ppn); err == nil {
			t.Errorf("world %v accepted", w)
		}
	}
}

// TestTunedDispatchMatchesRanking closes the autotuning loop: for every
// tabled size, the "tuned" dispatcher constructed from the persisted
// table must hand the exchange to the candidate the autotuner ranked
// first at that size.
func TestTunedDispatchMatchesRanking(t *testing.T) {
	t.Parallel()
	m := tinyDane()
	const nodes, ppn = 4, 8
	cands := []Candidate{
		{Name: "node-aware", Algo: "node-aware"},
		{Name: "mlna", Algo: "multileader-node-aware", Opts: core.Options{PPL: 2}},
		{Name: "bruck", Algo: "bruck"},
	}
	sizes := []int{8, 128, 2048}
	tbl, err := BuildTable(m, core.OpAlltoall, nodes, ppn, sizes, cands, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through disk so the test covers the persisted form.
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range sizes {
		want, _, err := Select(m, core.OpAlltoall, nodes, ppn, s, cands, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var picked string
		cfg := sim.ClusterConfig{Model: m, Nodes: nodes, PPN: ppn, Seed: 1}
		_, err = sim.RunCluster(cfg, func(c comm.Comm) error {
			a, err := core.New("tuned", c, s, loaded.Options())
			if err != nil {
				return err
			}
			send := comm.Virtual(c.Size() * s)
			recv := comm.Virtual(c.Size() * s)
			if err := a.Alltoall(send, recv, s); err != nil {
				return err
			}
			if c.Rank() == 0 {
				picked = a.(interface{ Picked() string }).Picked()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if picked != want.Label() {
			t.Errorf("size %d: dispatcher picked %q, autotuner ranked %q first", s, picked, want.Label())
		}
		if got := loaded.Pick(s); got.Name != want.Label() {
			t.Errorf("size %d: table entry %q, autotuner ranked %q first", s, got.Name, want.Label())
		}
	}
}

func TestSizeGrid(t *testing.T) {
	t.Parallel()
	if got := SizeGrid(4, 64); !reflect.DeepEqual(got, []int{4, 8, 16, 32, 64}) {
		t.Errorf("SizeGrid(4, 64) = %v", got)
	}
	// Max off the doubling sequence is appended.
	if got := SizeGrid(4, 100); !reflect.DeepEqual(got, []int{4, 8, 16, 32, 64, 100}) {
		t.Errorf("SizeGrid(4, 100) = %v", got)
	}
	if got := SizeGrid(7, 7); !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("SizeGrid(7, 7) = %v", got)
	}
	if SizeGrid(0, 8) != nil || SizeGrid(8, 4) != nil {
		t.Error("invalid grids accepted")
	}
	// Doubling must terminate (not overflow) at the int ceiling.
	huge := SizeGrid(4, math.MaxInt)
	if len(huge) == 0 || len(huge) > 64 || huge[len(huge)-1] != math.MaxInt {
		t.Errorf("SizeGrid to MaxInt: %d entries, last %d", len(huge), huge[len(huge)-1])
	}
	for _, v := range huge {
		if v <= 0 {
			t.Fatalf("overflowed entry %d in %v", v, huge)
		}
	}
}

// TestVTableRoundTrip: an alltoallv table preserves its op kind through
// Save/Load, converts to an OpAlltoallv dispatch spec, and drives the
// tuned v-dispatcher (while being rejected by the fixed-size one).
func TestVTableRoundTrip(t *testing.T) {
	t.Parallel()
	cands := []Candidate{
		{Name: "pairwise", Algo: "pairwise"},
		{Name: "node-aware", Algo: "node-aware"},
	}
	tbl, err := BuildTable(tinyDane(), core.OpAlltoallv, 2, 8, []int{16, 256}, cands, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Op != core.OpAlltoallv {
		t.Fatalf("table op = %q", tbl.Op)
	}
	path := filepath.Join(t.TempDir(), "vtable.json")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Op != core.OpAlltoallv {
		t.Fatalf("loaded op = %q", loaded.Op)
	}
	d := loaded.Dispatch()
	if d.Op != core.OpAlltoallv {
		t.Fatalf("dispatch op = %q", d.Op)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// A v-table must not drive the fixed-size dispatcher.
	m, err := topo.NewMapping(topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		if _, err := core.New("tuned", c, 64, loaded.Options()); err == nil {
			return fmt.Errorf("fixed-size tuned accepted an alltoallv table")
		}
		if _, err := core.NewV("tuned", c, 4096, loaded.Options()); err != nil {
			return fmt.Errorf("tuned alltoallv rejected its own table: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRefreshRoundTrip closes the online loop end to end: a table tuned
// for baseline Dane dispatches on a drifted machine (NICMsgCost x10
// flips the 4 KiB winner from pairwise to the adjacent bucket's
// node-aware), the refinement loop promotes the challenger, OnPromote
// rewrites the table via Refresh, and the refreshed table round-trips
// through Save/Load with its provenance intact.
func TestRefreshRoundTrip(t *testing.T) {
	drifted := netmodel.Dane()
	drifted.NICMsgCost *= 10
	tbl := &Table{
		Version: TableVersion, Machine: drifted.Name, Nodes: 4, PPN: 8,
		Entries: []Entry{
			{Size: 2048, Name: "node-aware", Algo: "node-aware"},
			{Size: 8192, Name: "pairwise", Algo: "pairwise"},
			{Size: 32768, Name: "pairwise", Algo: "pairwise"},
		},
		Provenance: &Provenance{Source: drifted.Name, Mode: "sweep"},
	}
	var refreshErr error
	cfg := sim.ClusterConfig{Model: drifted, Nodes: 4, PPN: 8, Seed: 1}
	_, err := sim.RunCluster(cfg, func(c comm.Comm) error {
		opts := tbl.Options()
		opts.Online = &core.OnlineConfig{Window: 2, TrialEvery: 2, OnPromote: func(ev core.PromoteEvent) {
			refreshErr = tbl.Refresh(ev) // rank 0 only
		}}
		a, err := core.New("tuned", c, 32768, opts)
		if err != nil {
			return err
		}
		const block = 4096
		send := comm.Virtual(c.Size() * block)
		recv := comm.Virtual(c.Size() * block)
		for i := 0; i < 12; i++ {
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refreshErr != nil {
		t.Fatal(refreshErr)
	}
	path := filepath.Join(t.TempDir(), "refreshed.json")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Pick(4096); got.Algo != "node-aware" || got.Seconds <= 0 {
		t.Errorf("refreshed 4 KiB winner %+v, want promoted node-aware with its window mean", got)
	}
	if back.Provenance == nil || back.Provenance.Mode != "online" || back.Provenance.Generation != 1 {
		t.Errorf("refreshed provenance %+v, want mode online at generation 1", back.Provenance)
	}
	if back.Provenance != nil && back.Provenance.Source != drifted.Name {
		t.Errorf("refreshed provenance source %q, want %q kept", back.Provenance.Source, drifted.Name)
	}
	if got := back.Pick(1024); got.Algo != "node-aware" {
		t.Errorf("unpromoted bucket changed: %+v", got)
	}
}

// TestRefreshRejectsBadBucket: a promotion event outside the table is an
// error, not a silent out-of-range write.
func TestRefreshRejectsBadBucket(t *testing.T) {
	tbl := &Table{Version: TableVersion, Machine: "Dane", Nodes: 1, PPN: 2,
		Entries: []Entry{{Size: 64, Name: "bruck", Algo: "bruck"}}}
	if err := tbl.Refresh(core.PromoteEvent{Bucket: 1}); err == nil {
		t.Fatal("Refresh accepted an out-of-range bucket")
	}
}

// FuzzDecodeTable feeds arbitrary bytes to Decode, seeded with a
// version-1 table and a version-2 alltoallv table with provenance. It
// must never panic, and a table it accepts must survive encode → decode
// → encode with identical bytes.
func FuzzDecodeTable(f *testing.F) {
	v1 := &Table{Version: 1, Machine: "Dane", Nodes: 4, PPN: 8, Entries: []Entry{
		{Size: 16, Name: "node-aware", Algo: "node-aware", Seconds: 1.5e-5},
		{Size: 1024, Name: "multileader/2ppl", Algo: "multileader-node-aware", Opts: core.Options{PPL: 2}, Seconds: 3e-4},
	}}
	v2 := &Table{Version: TableVersion, Machine: "Dane", Nodes: 2, PPN: 8, Op: core.OpAlltoallv,
		Entries: []Entry{
			{Size: 16, Name: "pairwise", Algo: "pairwise", Seconds: 2e-5},
			{Size: 256, Name: "node-aware", Algo: "node-aware", Opts: core.Options{Inner: core.InnerBruck}, Seconds: 1e-4},
		},
		Provenance: &Provenance{Source: "Dane", Mode: "online", ProbeSizes: []int{16, 256}, ModelHash: "0123456789abcdef", Generation: 3},
	}
	for _, tbl := range []*Table{v1, v2} {
		var b bytes.Buffer
		if err := tbl.Encode(&b); err != nil {
			f.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(b.Bytes())); err != nil {
			f.Fatalf("seed table rejected: %v", err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()/2])
	}
	f.Add([]byte(`{"version":3}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		tbl, err := Decode(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tbl.Encode(&first); err != nil {
			t.Fatalf("encoding an accepted table: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted table does not decode after encoding: %v", err)
		}
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode → decode → encode changed the table:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
