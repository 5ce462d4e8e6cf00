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

// TestVerifyRejectsAlltoallv: a2asched verify refuses, by name, the
// format-2 artifacts of the removed alltoallv collective, which decode
// with their count fields dropped: v-pairwise on the count matrix
// [[1 2 0] [1 1 1] [2 0 1]] as a world and as rank 1's program
// (internal/sched's TestVerifyRejectsAlltoallv checks the same two).
func TestVerifyRejectsAlltoallv(t *testing.T) {
	dir := t.TempDir()
	for name, file := range map[string]string{
		"world.json": `{"format":2,"name":"v-pairwise","ranks":3,"coll":"alltoallv","counts":[[1,2,0],[1,1,1],[2,0,1]],"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"copy","s":[0,2,1],"d":[1,1,1]}]]},{"steps":[[{"k":"sendrecv","t":1,"f":2,"s":[0,1,2],"d":[1,2,2]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"sendrecv","f":1,"s":[0,0,2],"d":[1,0,1]}]]},{"steps":[[{"k":"recv","f":1,"s":[0,0,0],"d":[1,1,1]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}],null]}]}`,
		"rank1.json": `{"format":2,"name":"v-pairwise","ranks":3,"rank":1,"coll":"alltoallv","vsend":[1,1,1],"vrecv":[2,1,0],"rounds":[[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}]]}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		err := runVerify([]string{path})
		if want := `FAIL: sched: unknown collective "alltoallv"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("verify %s = %v, want %s", name, err, want)
		}
	}
}

// TestVerifyRefusesMalformedSteps: a2asched verify refuses the 2-rank
// pairwise world and its rank 0 program, which verify unedited, once a
// ref holds four, two or no integers, a step names an unknown kind, or
// a peer or a ref element lies outside int32: the file does not decode,
// and the error names the edited value (internal/sched's
// TestDecodeRefusals feeds the same edits to the decoders). A ref of
// four integers or two once decoded as three and passed.
func TestVerifyRefusesMalformedSteps(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"world.json": `{"format":2,"name":"pairwise","ranks":2,"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,1,1]}]]},{"steps":[[{"k":"sendrecv","t":1,"f":1,"s":[0,1,1],"d":[1,1,1]}],[{"k":"sendrecv","s":[0,0,1],"d":[1,0,1]}]]}]}`,
		"rank0.json": `{"format":2,"name":"pairwise","ranks":2,"rank":0,"rounds":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"sendrecv","t":1,"f":1,"s":[0,1,1],"d":[1,1,1]}]]}`,
	}
	edits := []struct{ old, new, want string }{
		{`"s":[0,1,1]`, `"s":[0,1,1,99]`, "ref [0,1,1,99]"},
		{`"s":[0,1,1]`, `"s":[0,1]`, "ref [0,1]"},
		{`"s":[0,1,1]`, `"s":[]`, "ref []"},
		{`"k":"sendrecv"`, `"k":"warp"`, `unknown step kind "warp"`},
		{`"t":1`, `"t":2147483648`, "2147483648"},
		{`"s":[0,1,1]`, `"s":[0,-2147483649,1]`, "-2147483649"},
	}
	for name, file := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runVerify([]string{path}); err != nil {
			t.Fatalf("unedited %s: %v", name, err)
		}
		for _, e := range edits {
			if err := os.WriteFile(path, []byte(strings.Replace(file, e.old, e.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			err := runVerify([]string{path})
			if err == nil || !strings.Contains(err.Error(), "not a valid schedule") || !strings.Contains(err.Error(), e.want) {
				t.Errorf("verify %s with %s for %s = %v, want a decoding error naming %s", name, e.new, e.old, err, e.want)
			}
		}
	}
}
