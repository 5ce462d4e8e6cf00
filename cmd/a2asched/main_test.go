package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
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

// TestVerifyBudgetsCells: a 2-rank rank program whose one receive lands
// a billion blocks in its declared billion-block scratch space is
// rejected by a2asched verify for exceeding the verifier's cell budget,
// while allocating under 8 MB. Not parallel: it reads the process-wide
// allocation counter.
func TestVerifyBudgetsCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge-recv.json")
	file := `{"format":2,"name":"x","ranks":2,"rank":0,"scratch":[1000000000],"rounds":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]},{"k":"recv","f":1,"s":[0,0,0],"d":[2,0,1000000000]}]]}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := runVerify([]string{path})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "rank 0 step 1 (recv) dst: slot 24 of space 2 would take the walker past its budget of 28 cells") {
		t.Fatalf("verify = %v, want the cell budget rejection", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<20 {
		t.Fatalf("verify allocated %d bytes rejecting the file, want under 8 MB", n)
	}
}
