package sched_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoallx/internal/sched"
	"alltoallx/internal/schedreg"
)

// TestProveRanksSeesContent: a generator whose rank 1 sends rank 0 the
// block at the wrong send offset passes every slice's local check —
// every message still has the right endpoints and length, and a lone
// receiver cannot name what arrives — but not the world proof, which
// tracks every block's identity: Prove rejects it at 4, 128 and 129
// ranks, and a fresh registry records its rejection, never a proof. Not
// parallel: it registers a test-only generator in the package-global
// registry.
func TestProveRanksSeesContent(t *testing.T) {
	const name = "direct-wrong-offset"
	sched.RegisterWrongOffset(t, name)
	for _, p := range []int{4, 128, 129} {
		for r := 0; r < p; r++ {
			rp, err := sched.GenerateRank(name, p, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sched.VerifyRank(rp); err != nil {
				t.Fatalf("p=%d rank %d: VerifyRank rejected the wrong offset (%v); this test needs a content-only error", p, r, err)
			}
		}
		_, err := sched.Prove(name, p, nil)
		if err == nil || !strings.Contains(err.Error(), "failed static verification") || !strings.Contains(err.Error(), "receives block (1->2), want block (1->0)") {
			t.Fatalf("p=%d: Prove = %v, want a failed static verification naming the wrong block", p, err)
		}
		root := t.TempDir()
		reg, err := schedreg.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		k := schedreg.KeyFor(name, p, nil, 0)
		if _, err := reg.GetOrCompile(k); !errors.Is(err, schedreg.ErrRejected) {
			t.Fatalf("p=%d: GetOrCompile = %v, want a rejection", p, err)
		}
		dir := filepath.Join(root, "keys", name, k.World())
		if _, err := os.Stat(filepath.Join(dir, "REJECTED")); err != nil {
			t.Fatalf("p=%d: no REJECTED marker: %v", p, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "PROOF")); !os.IsNotExist(err) {
			t.Fatalf("p=%d: the registry recorded a PROOF for the world (%v)", p, err)
		}
	}
}
