package bench

import (
	"strings"
	"testing"

	"alltoallx/internal/netmodel"
)

// TestRunOverlap runs a tiny overlap experiment end to end and sanity-
// checks the model's invariants: the async time never beats the exchange
// itself, never exceeds the blocking sequence, and the hidden fraction is
// a valid share.
func TestRunOverlap(t *testing.T) {
	scale := Scale{Name: "test", Runs: 1, PPN: 4}
	tbl, err := RunOverlap("Dane", scale, 2, 1024, []string{"pairwise", "node-aware"}, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r.CommSeconds <= 0 {
			t.Errorf("%s: nonpositive comm time %g", r.Algo, r.CommSeconds)
		}
		if r.AsyncSeconds < r.CommSeconds*0.99 {
			t.Errorf("%s: async %g undercuts comm %g", r.Algo, r.AsyncSeconds, r.CommSeconds)
		}
		if r.AsyncSeconds > r.SeqSeconds*1.01 {
			t.Errorf("%s: async %g exceeds blocking sequence %g", r.Algo, r.AsyncSeconds, r.SeqSeconds)
		}
		if r.HiddenFrac < 0 || r.HiddenFrac > 1 {
			t.Errorf("%s: hidden fraction %g outside [0, 1]", r.Algo, r.HiddenFrac)
		}
	}
	// Direct exchanges wait more than they compute, so pairwise should
	// hide a substantial share behind compute.
	if tbl.Rows[0].HiddenFrac <= 0 {
		t.Errorf("pairwise hid nothing: the overlap model is inert")
	}
	var sb strings.Builder
	if err := tbl.Format(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pairwise") || !strings.Contains(sb.String(), "hidden") {
		t.Errorf("Format output missing expected columns:\n%s", sb.String())
	}
	sb.Reset()
	if err := tbl.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 3 {
		t.Errorf("CSV lines = %d, want 3 (header + 2 rows)", got)
	}
}

// TestMeasureCachePhasesIsolated: mutating the Phases map of a returned
// point must not corrupt later cache hits for the same configuration.
func TestMeasureCachePhasesIsolated(t *testing.T) {
	machine, err := netmodel.ByName("Dane")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: machine, Nodes: 2, PPN: 4, Algo: "node-aware", Block: 512, Runs: 1, BaseSeed: 7}
	// Whether the first call runs or hits an entry an earlier test left,
	// every later call must hit, and no returned map may alias the cache.
	for call := 0; call < 3; call++ {
		pt, fresh, err := measure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if call > 0 && fresh {
			t.Fatalf("measure call %d ran again, want a cache hit", call)
		}
		if len(pt.Phases) == 0 {
			t.Fatalf("call %d: point has no phases", call)
		}
		for k, v := range pt.Phases {
			if v == -42 {
				t.Errorf("call %d: cache phase %q corrupted through a returned point", call, k)
			}
			pt.Phases[k] = -42
		}
	}
}
