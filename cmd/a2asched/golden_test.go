package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoallx/internal/sched"
)

// update rewrites testdata/cli.golden:
//
//	go test ./cmd/a2asched -run TestCLIGolden -update
//
// Only for an intended output change, whose changed lines are then
// listed with the change.
var update = flag.Bool("update", false, "rewrite testdata/cli.golden")

// cliCommands are the subcommands the golden test runs, as main
// dispatches them.
var cliCommands = map[string]func([]string) error{
	"gen": runGen, "slice": runSlice, "verify": runVerify, "print": runPrint, "diff": runDiff,
}

// runCLI runs one a2asched command in-process as main does, with its
// stdout and stderr captured: an error goes to stderr behind the
// "a2asched:" prefix and makes the exit status 1. Every occurrence of
// dir in the output is cut, so the output names files as the test's
// arguments do. Not safe for parallel use: it swaps os.Stdout and
// os.Stderr.
func runCLI(t *testing.T, dir string, args ...string) (stdout, stderr []byte, status int) {
	t.Helper()
	capture := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	outF, errF := capture(".stdout"), capture(".stderr")
	saveOut, saveErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	abs := make([]string, len(args)-1)
	for i, a := range args[1:] {
		if strings.HasSuffix(a, ".json") {
			a = filepath.Join(dir, a)
		}
		abs[i] = a
	}
	err := cliCommands[args[0]](abs)
	os.Stdout, os.Stderr = saveOut, saveErr
	if err != nil {
		fmt.Fprintln(errF, "a2asched:", err)
		status = 1
	}
	read := func(f *os.File) []byte {
		f.Close()
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return bytes.ReplaceAll(b, []byte(dir+string(filepath.Separator)), nil)
	}
	return read(outF), read(errF), status
}

// cliWorld is one world the golden test generates: its file and the gen
// flags naming it.
type cliWorld struct {
	file  string
	flags []string
}

// cliWorlds are every generator at 1, 2, 5, 8 and 16 ranks (hypercube's
// refusal of 5 included) and torus on 4x8 and 8x4 grids.
func cliWorlds() []cliWorld {
	var ws []cliWorld
	for _, name := range sched.Generators() {
		for _, p := range []int{1, 2, 5, 8, 16} {
			ws = append(ws, cliWorld{fmt.Sprintf("%s_%d.json", name, p), []string{"-name", name, "-ranks", fmt.Sprint(p)}})
		}
	}
	for _, grid := range [][2]int{{4, 8}, {8, 4}} {
		nodes, ppn := grid[0], grid[1]
		ws = append(ws, cliWorld{fmt.Sprintf("torus_%dx%d.json", nodes, ppn),
			[]string{"-name", "torus", "-nodes", fmt.Sprint(nodes), "-ppn", fmt.Sprint(ppn)}})
	}
	return ws
}

// TestCLIGolden pins what a2asched gen, verify, print, print -linkload
// and diff write: each line of testdata/cli.golden is one command with
// the SHA-256 of its stdout and of its stderr and its exit status. The
// commands cover every cliWorld — gen to a file and to stdout, then
// verify, print, print -linkload, diff against itself and diff against
// the world before it — and the corrupted and adversarial files the
// verify skill's probes use: a rank program edited to an out-of-range
// rank, refs, kinds and numbers no decoder
// accepts, worlds whose declarations outsize their steps, alltoallv
// artifacts, a round short of step lists and a world without rounds.
// Not parallel: runCLI swaps the process's stdout and stderr.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	var got strings.Builder
	run := func(args ...string) {
		stdout, stderr, status := runCLI(t, dir, args...)
		fmt.Fprintf(&got, "%s | out %x err %x exit %d\n", strings.Join(args, " "), sha256.Sum256(stdout), sha256.Sum256(stderr), status)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	prev := ""
	for _, w := range cliWorlds() {
		run(append(append([]string{"gen"}, w.flags...), "-o", w.file)...)
		run(append([]string{"gen"}, w.flags...)...)
		run("verify", w.file)
		run("print", w.file)
		run("print", "-linkload", w.file)
		run("diff", w.file, w.file)
		if prev != "" {
			run("diff", prev, w.file)
		}
		prev = w.file
	}

	run("slice", "-name", "ring", "-ranks", "4", "-rank", "1", "-o", "ring_4_r1.json")
	ring4r1, err := os.ReadFile(filepath.Join(dir, "ring_4_r1.json"))
	if err != nil {
		t.Fatal(err)
	}
	write("ring_4_r9.json", bytes.Replace(ring4r1, []byte(`"rank": 1,`), []byte(`"rank": 9,`), 1))
	run("verify", "ring_4_r1.json")
	run("verify", "ring_4_r9.json")

	pairwise := map[string]string{
		"pairwise2_world.json": `{"format":2,"name":"pairwise","ranks":2,"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,1,1]}]]},{"steps":[[{"k":"sendrecv","t":1,"f":1,"s":[0,1,1],"d":[1,1,1]}],[{"k":"sendrecv","s":[0,0,1],"d":[1,0,1]}]]}]}`,
		"pairwise2_rank0.json": `{"format":2,"name":"pairwise","ranks":2,"rank":0,"rounds":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"sendrecv","t":1,"f":1,"s":[0,1,1],"d":[1,1,1]}]]}`,
	}
	edits := []struct{ old, new string }{
		{`"s":[0,1,1]`, `"s":[0,1,1,99]`},
		{`"s":[0,1,1]`, `"s":[0,1]`},
		{`"s":[0,1,1]`, `"s":[]`},
		{`"k":"sendrecv"`, `"k":"warp"`},
		{`"t":1`, `"t":2147483648`},
		{`"s":[0,1,1]`, `"s":[0,-2147483649,1]`},
	}
	for _, name := range []string{"pairwise2_world.json", "pairwise2_rank0.json"} {
		write(name, []byte(pairwise[name]))
		run("verify", name)
		for i, e := range edits {
			edited := fmt.Sprintf("%s_edit%d.json", strings.TrimSuffix(name, ".json"), i)
			write(edited, []byte(strings.Replace(pairwise[name], e.old, e.new, 1)))
			run("verify", edited)
		}
	}
	write("pairwise2_format1.json", []byte(strings.Replace(pairwise["pairwise2_world.json"], `"format":2`, `"format":1`, 1)))
	run("verify", "pairwise2_format1.json")
	run("print", "pairwise2_format1.json")
	run("diff", "pairwise2_world.json", "pairwise2_format1.json")

	adversarial := []struct {
		name, file string
		printed    bool // cheap to print: print and print -linkload run too
	}{
		{"steplists0_ranks4000.json", `{"format":2,"name":"x","ranks":4000,"rounds":[{"steps":[]}]}`, false},
		{"steplists3_ranks2.json", `{"format":2,"name":"pairwise","ranks":2,"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,1,1]}],[]]}]}`, true},
		{"no_rounds.json", `{"format":2,"name":"x","ranks":2,"rounds":[]}`, true},
		{"huge_scratch.json", `{"format":2,"name":"x","ranks":1,"scratch":[1000000000],"rounds":[{"steps":[[]]}]}`, true},
		{"ranks8000.json", `{"format":2,"name":"x","ranks":8000,"rounds":[{"steps":[[]` + strings.Repeat(`,[]`, 7999) + `]}]}`, false},
		{"huge_recv_rank0.json", `{"format":2,"name":"x","ranks":2,"rank":0,"scratch":[1000000000],"rounds":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]},{"k":"recv","f":1,"s":[0,0,0],"d":[2,0,1000000000]}]]}`, false},
		{"alltoallv_world.json", `{"format":2,"name":"v-pairwise","ranks":3,"coll":"alltoallv","counts":[[1,2,0],[1,1,1],[2,0,1]],"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"copy","s":[0,2,1],"d":[1,1,1]}]]},{"steps":[[{"k":"sendrecv","t":1,"f":2,"s":[0,1,2],"d":[1,2,2]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"sendrecv","f":1,"s":[0,0,2],"d":[1,0,1]}]]},{"steps":[[{"k":"recv","f":1,"s":[0,0,0],"d":[1,1,1]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}],null]}]}`, true},
		{"alltoallv_rank1.json", `{"format":2,"name":"v-pairwise","ranks":3,"rank":1,"coll":"alltoallv","vsend":[1,1,1],"vrecv":[2,1,0],"rounds":[[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}]]}`, false},
	}
	for _, a := range adversarial {
		write(a.name, []byte(a.file))
		run("verify", a.name)
		if a.printed {
			run("print", a.name)
			run("print", "-linkload", "-fabric", "ring", a.name)
			run("diff", a.name, a.name)
		}
	}
	run("print", "ring_4_r1.json")
	run("diff", "ring_4_r1.json", "ring_8.json")
	run("verify", "missing.json")
	run("print", "missing.json")
	run("diff", "missing.json", "ring_8.json")

	path := filepath.Join("testdata", "cli.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%d golden lines, want %d", len(gl), len(wl))
	}
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Errorf("cli.golden line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
}
