package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerifyNamesRankProgramError: a rank-program artifact that fails
// DecodeRank's shape checks must be rejected with that reason, not only
// with the schedule decoder's complaint about a file it was never meant
// to parse.
func TestVerifyNamesRankProgramError(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "ring4r1.json")
	if err := runSlice([]string{"-name", "ring", "-ranks", "4", "-rank", "1", "-o", good}); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{good}); err != nil {
		t.Fatalf("unedited slice rejected: %v", err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"rank": 1,`), []byte(`"rank": 9,`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal(`slice artifact has no "rank": 1 field to edit`)
	}
	bad := filepath.Join(dir, "ring4r9.json")
	if err := os.WriteFile(bad, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runVerify([]string{bad})
	if err == nil {
		t.Fatal("rank 9 of a 4-rank world passed verify")
	}
	for _, want := range []string{"rank program rank 9 out of range 0..3", "decoding schedule"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verify error %q does not mention %q", err, want)
		}
	}
}
