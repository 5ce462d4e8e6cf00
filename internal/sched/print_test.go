package sched

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFormatRef: the conventional space names.
func TestFormatRef(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		ref  Ref
		want string
	}{
		{sendRef(3, 1), "send[3:1]"},
		{recvRef(0, 4), "recv[0:4]"},
		{scratchRef(0, 2, 1), "s0[2:1]"},
		{scratchRef(1, 0, 5), "s1[0:5]"},
	} {
		if got := FormatRef(tc.ref); got != tc.want {
			t.Errorf("FormatRef(%v) = %q, want %q", tc.ref, got, tc.want)
		}
	}
}

// TestFormatGolden pins the rendering of a Bruck world — header with
// collective, stats including repack and scratch, per-round matrices —
// against a golden file. Regenerate with -update.
func TestFormatGolden(t *testing.T) {
	t.Parallel()
	got := Format(mustGen(t, "bruck", 6))
	path := filepath.Join("testdata", "print_bruck6.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("rendering drifted from %s (run with -update to regenerate):\n%s", path, got)
	}
}

// TestFormatLargeWorld: beyond matrixRanks ranks the per-round matrices
// are suppressed but the stats survive.
func TestFormatLargeWorld(t *testing.T) {
	t.Parallel()
	out := Format(mustGen(t, "ring", matrixRanks+1))
	if strings.Contains(out, "|") {
		t.Errorf("matrix rendered for %d ranks:\n%s", matrixRanks+1, out)
	}
	if !strings.Contains(out, "repack") || !strings.Contains(out, "round 0:") {
		t.Errorf("stats lines missing:\n%s", out)
	}
}
