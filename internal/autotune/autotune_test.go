package autotune

import (
	"strings"
	"testing"

	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/topo"
)

// tinyDane shrinks the node so selection tests stay fast.
func tinyDane() netmodel.Params {
	m := netmodel.Dane()
	m.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	return m
}

func TestDefaultCandidates(t *testing.T) {
	t.Parallel()
	// 32 x 112 = 3584 ranks: far beyond the schedule-candidate cap, so
	// only the paper family appears.
	cands := DefaultCandidates(core.OpAlltoall, 32, 112)
	if len(cands) != 3+3*3 {
		t.Fatalf("candidate count = %d", len(cands))
	}
	cands8 := DefaultCandidates(core.OpAlltoall, 2, 8)
	for _, c := range cands8 {
		if c.Opts.PPL > 8 || c.Opts.PPG > 8 {
			t.Errorf("candidate %s exceeds ppn", c.Label())
		}
	}
	// 2 x 8 = 16 ranks: schedule candidates join, including hypercube
	// (power of two).
	has := func(cands []Candidate, name string) bool {
		for _, c := range cands {
			if c.Name == name {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"sched:ring", "sched:torus", "sched:hypercube"} {
		if !has(cands8, want) {
			t.Errorf("16-rank pool missing %s", want)
		}
	}
	// 3 x 4 = 12 ranks: not a power of two, no hypercube.
	cands12 := DefaultCandidates(core.OpAlltoall, 3, 4)
	if !has(cands12, "sched:ring") || has(cands12, "sched:hypercube") {
		t.Errorf("12-rank pool wrong schedule gating: %v", cands12)
	}
	// Schedules compile fixed-size exchanges, so no alltoallv pool
	// carries one, at any world size.
	for _, w := range []struct{ nodes, ppn int }{{1, 2}, {2, 8}, {3, 4}, {8, 8}, {8, 32}, {32, 112}} {
		for _, c := range DefaultCandidates(core.OpAlltoallv, w.nodes, w.ppn) {
			if strings.HasPrefix(c.Algo, core.SchedPrefix) {
				t.Errorf("%dx%d alltoallv pool contains schedule candidate %s", w.nodes, w.ppn, c.Name)
			}
		}
	}
}

// TestCandidatePoolGroupSizeParity pins the satellite bugfix: both
// operations must gate leader/group sizes with the same q <= ppn bound.
// The OpAlltoallv branch used q < ppn, silently dropping the valid
// locality-aware/PPG=ppn configuration (the whole-node-group degenerate
// case exercised by core's census tests) from every alltoallv sweep.
func TestCandidatePoolGroupSizeParity(t *testing.T) {
	t.Parallel()
	groupSizes := func(cands []Candidate) map[int]bool {
		out := make(map[int]bool)
		for _, c := range cands {
			if c.Algo == "locality-aware" {
				out[c.Opts.PPG] = true
			}
		}
		return out
	}
	for _, ppn := range []int{4, 8, 16} {
		a := groupSizes(DefaultCandidates(core.OpAlltoall, 2, ppn))
		v := groupSizes(DefaultCandidates(core.OpAlltoallv, 2, ppn))
		if !a[ppn] {
			t.Errorf("ppn=%d: alltoall pool missing locality-aware/PPG=ppn", ppn)
		}
		if !v[ppn] {
			t.Errorf("ppn=%d: alltoallv pool missing locality-aware/PPG=ppn (the q < ppn bound bug)", ppn)
		}
		if len(a) != len(v) {
			t.Errorf("ppn=%d: group-size sets differ between ops: alltoall %v, alltoallv %v", ppn, a, v)
		}
		for q := range a {
			if !v[q] {
				t.Errorf("ppn=%d: group size %d swept for alltoall but not alltoallv", ppn, q)
			}
		}
	}
}

// TestCandidatePoolScheduleCaps pins the raised schedule-candidate
// ceiling: torus/hypercube join up to schedMaxRanks (1024) ranks — far
// past the old 128-rank cap — while the Theta(p^3)-work ring stops at
// ringMaxRanks.
func TestCandidatePoolScheduleCaps(t *testing.T) {
	t.Parallel()
	has := func(cands []Candidate, name string) bool {
		for _, c := range cands {
			if c.Name == name {
				return true
			}
		}
		return false
	}
	// 256 ranks: all three schedule families (power of two).
	c256 := DefaultCandidates(core.OpAlltoall, 8, 32)
	for _, want := range []string{"sched:ring", "sched:torus", "sched:hypercube"} {
		if !has(c256, want) {
			t.Errorf("256-rank pool missing %s", want)
		}
	}
	// 512 ranks: past the old 128-rank cap, torus and hypercube sweep;
	// ring is excluded by its own work bound.
	c512 := DefaultCandidates(core.OpAlltoall, 16, 32)
	if !has(c512, "sched:torus") || !has(c512, "sched:hypercube") {
		t.Errorf("512-rank pool missing schedule candidates (old 128-rank cap resurrected?): %v", c512)
	}
	if has(c512, "sched:ring") {
		t.Errorf("512-rank pool contains sched:ring despite its Theta(p^3) execution cost")
	}
	// 1024 ranks: still in; 2048: out.
	if c := DefaultCandidates(core.OpAlltoall, 32, 32); !has(c, "sched:torus") {
		t.Errorf("1024-rank pool missing sched:torus (schedMaxRanks must be >= 1024)")
	}
	if c := DefaultCandidates(core.OpAlltoall, 64, 32); has(c, "sched:torus") {
		t.Errorf("2048-rank pool contains schedule candidates beyond schedMaxRanks")
	}
}

// TestSelectSweepsSchedules: a selection over schedule-backed candidates
// runs end-to-end on the machine model and produces a valid table entry.
func TestSelectSweepsSchedules(t *testing.T) {
	t.Parallel()
	m := tinyDane()
	cands := []Candidate{
		{Name: "bruck", Algo: "bruck"},
		{Name: "sched:ring", Algo: "sched:ring"},
		{Name: "sched:hypercube", Algo: "sched:hypercube"},
	}
	best, ranking, err := Select(m, core.OpAlltoall, 2, 8, 64, cands, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != len(cands) {
		t.Fatalf("ranking size %d", len(ranking))
	}
	tbl := &Table{Version: TableVersion, Machine: m.Name, Nodes: 2, PPN: 8,
		Entries: []Entry{EntryFor(64, best)}}
	if err := tbl.Validate(); err != nil {
		t.Fatalf("table with schedule winner invalid: %v", err)
	}
}

func TestSelectRanksCandidates(t *testing.T) {
	t.Parallel()
	m := tinyDane()
	cands := []Candidate{
		{Name: "node-aware", Algo: "node-aware"},
		{Name: "hierarchical", Algo: "hierarchical"},
		{Name: "mlna", Algo: "multileader-node-aware", Opts: core.Options{PPL: 2}},
	}
	best, ranking, err := Select(m, core.OpAlltoall, 4, 8, 512, cands, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != len(cands) {
		t.Fatalf("ranking size %d", len(ranking))
	}
	for i := 1; i < len(ranking); i++ {
		if ranking[i].Seconds < ranking[i-1].Seconds {
			t.Errorf("ranking not sorted: %v", ranking)
		}
	}
	if best.Seconds != ranking[0].Seconds {
		t.Errorf("best %v != ranking[0] %v", best, ranking[0])
	}
	if best.Seconds <= 0 {
		t.Errorf("nonpositive prediction %g", best.Seconds)
	}
}

func TestSelectErrors(t *testing.T) {
	t.Parallel()
	m := tinyDane()
	if _, _, err := Select(m, core.OpAlltoall, 2, 8, 64, nil, 1, 1, nil); err == nil {
		t.Error("empty candidates accepted")
	}
	bad := []Candidate{{Algo: "no-such"}}
	if _, _, err := Select(m, core.OpAlltoall, 2, 8, 64, bad, 1, 1, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestBuildTableAndPick(t *testing.T) {
	t.Parallel()
	m := tinyDane()
	cands := []Candidate{
		{Name: "node-aware", Algo: "node-aware"},
		{Name: "mlna", Algo: "multileader-node-aware", Opts: core.Options{PPL: 2}},
	}
	tbl, err := BuildTable(m, core.OpAlltoall, 4, 8, []int{1024, 16}, cands, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatalf("built table invalid: %v", err)
	}
	if len(tbl.Entries) != 2 || tbl.Entries[0].Size != 16 || tbl.Entries[1].Size != 1024 {
		t.Fatalf("sizes not sorted: %+v", tbl.Entries)
	}
	// Pick boundaries: below, between, above.
	if got := tbl.Pick(4); got.Name != tbl.Entries[0].Name {
		t.Errorf("Pick(4) = %v", got.Name)
	}
	if got := tbl.Pick(16); got.Name != tbl.Entries[0].Name {
		t.Errorf("Pick(16) = %v", got.Name)
	}
	if got := tbl.Pick(500); got.Name != tbl.Entries[1].Name {
		t.Errorf("Pick(500) = %v", got.Name)
	}
	if got := tbl.Pick(1 << 20); got.Name != tbl.Entries[1].Name {
		t.Errorf("Pick(big) = %v", got.Name)
	}
	if _, err := BuildTable(m, core.OpAlltoall, 4, 8, nil, cands, 1, 1, nil); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := BuildTable(m, core.OpAlltoall, 4, 8, []int{16, 16}, cands, 1, 1, nil); err == nil {
		t.Error("duplicate sizes accepted")
	}
}
