package schedreg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"alltoallx/internal/artifact"
	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

// seamCounters instruments the world proof and the rank compiler for
// the duration of a test, so tests can prove the proof did or did not
// run. Tests that install counters must not run in parallel (the seams
// are package globals).
type seamCounters struct {
	proofs, rankGenerates atomic.Int64
}

func countSeams(t testing.TB) *seamCounters {
	t.Helper()
	var c seamCounters
	opr, ogr := prove, generateRank
	prove = func(name string, p int, m *topo.Mapping) ([][sha256.Size]byte, error) {
		c.proofs.Add(1)
		return opr(name, p, m)
	}
	generateRank = func(name string, p, rank int, m *topo.Mapping) (*sched.RankProgram, error) {
		c.rankGenerates.Add(1)
		return ogr(name, p, rank, m)
	}
	t.Cleanup(func() { prove, generateRank = opr, ogr })
	return &c
}

func mustMapping(t *testing.T, nodes, ppn int) *topo.Mapping {
	t.Helper()
	m, err := topo.NewMapping(topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: ppn}, nodes, ppn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encodeRP(t *testing.T, rp *sched.RankProgram) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGetOrCompileRoundTrip: a miss proves and records the world; the
// result is byte-identical to direct generation; a second call resolves
// against the record without proving.
func TestGetOrCompileRoundTrip(t *testing.T) {
	c := countSeams(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, 3, 4)
	k := KeyFor("torus", 12, m, 5)

	rp, err := reg.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GenerateRank("torus", 12, 5, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) {
		t.Fatal("registry program differs from direct generation")
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("world proof ran %d times, want 1", got)
	}

	rp2, err := reg.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp2), encodeRP(t, want)) {
		t.Fatal("second fetch differs")
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("second fetch re-ran the proof (%d runs)", got)
	}
	st := reg.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 compile", st)
	}
}

// TestProveOnceAcrossRegistryInstances is the acceptance criterion:
// two registry instances over one root (two processes, or one
// restarted) prove a world exactly once — the second runs no proof,
// only one GenerateRank per rank it resolves, and serves byte-identical
// programs.
func TestProveOnceAcrossRegistryInstances(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	m := mustMapping(t, 2, 4)
	k := KeyFor("ring", 8, m, 3)

	reg1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	first, err := reg1.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("first instance ran the world proof %d times, want 1", got)
	}

	reg2, err := Open(root) // a second process: fresh instance, same root
	if err != nil {
		t.Fatal(err)
	}
	ranks0 := c.rankGenerates.Load()
	for i, rank := range []int{3, 6} {
		kr := k
		kr.Rank = rank
		rp, err := reg2.GetOrCompile(kr)
		if err != nil {
			t.Fatal(err)
		}
		if rank == 3 && !bytes.Equal(encodeRP(t, first), encodeRP(t, rp)) {
			t.Fatal("instances disagree on program bytes")
		}
		if got := c.proofs.Load(); got != 1 {
			t.Fatalf("rank %d: second instance re-proved the world (%d proofs in all)", rank, got)
		}
		if got := c.rankGenerates.Load() - ranks0; got != int64(i+1) {
			t.Fatalf("after resolving %d ranks the second instance ran GenerateRank %d times", i+1, got)
		}
	}
	if st := reg2.Stats(); st.Hits != 2 || st.Misses != 0 || st.Compiles != 0 {
		t.Fatalf("second instance stats = %+v, want two pure hits", st)
	}
}

// TestNegativeCache: a rejected world is persisted; later instances
// answer from the marker without re-running the generator, and the
// verdict wraps ErrRejected with full key context.
func TestNegativeCache(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	reg1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("hypercube", 6, nil, 0) // hypercube needs a power of 2
	_, err = reg1.GetOrCompile(k)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("proof ran %d times, want 1", got)
	}

	reg2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = reg2.GetOrCompile(k)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("second instance: want ErrRejected, got %v", err)
	}
	for _, frag := range []string{"hypercube", "p6-flat", "power-of-two"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("rejection %q does not mention %q", err, frag)
		}
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("second instance re-ran the proof (%d runs)", got)
	}
	if st := reg2.Stats(); st.NegativeHits != 1 || st.Compiles != 0 {
		t.Fatalf("second instance stats = %+v, want 1 negative hit, 0 compiles", st)
	}
}

// TestLargeWorldSlicedPath: above sched.FullProofRanks the registry
// proves the world once; the world's whole footprint is its PROOF
// record, and a restarted instance resolves any rank against that
// record with one GenerateRank each.
func TestLargeWorldSlicedPath(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	p := sched.FullProofRanks + 2
	k := KeyFor("direct", p, nil, 7)

	reg1, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := reg1.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GenerateRank("direct", p, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) {
		t.Fatal("sliced-path program differs from direct generation")
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("world proof ran %d times, want 1", got)
	}
	files, err := os.ReadDir(filepath.Join(root, "keys", "direct", k.World()))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "PROOF" {
		t.Fatalf("world directory holds %v, want only PROOF", files)
	}

	reg2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	ranks0 := c.rankGenerates.Load()
	for _, rank := range []int{7, 9} {
		kr := k
		kr.Rank = rank
		if _, err := reg2.GetOrCompile(kr); err != nil {
			t.Fatal(err)
		}
	}
	if c.proofs.Load() != 1 {
		t.Fatal("restarted instance re-proved the world")
	}
	if got := c.rankGenerates.Load() - ranks0; got != 2 {
		t.Fatalf("resolving 2 ranks ran GenerateRank %d times, want 2", got)
	}
}

// TestConcurrentGetOrCompile: goroutines racing on the same and
// different ranks of one world produce one world compilation and
// byte-identical programs. Run with -race.
func TestConcurrentGetOrCompile(t *testing.T) {
	c := countSeams(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, 4, 4)
	const goroutines = 32
	var wg sync.WaitGroup
	progs := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp, err := reg.GetOrCompile(KeyFor("torus", 16, m, i%16))
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := rp.Encode(&buf); err != nil {
				errs[i] = err
				return
			}
			progs[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("world proof ran %d times under contention, want 1", got)
	}
	for i := 0; i < goroutines; i++ {
		j := (i + 16) % goroutines // same rank, different goroutine
		if !bytes.Equal(progs[i], progs[j]) {
			t.Fatalf("goroutines %d and %d disagree on rank %d's program", i, j, i%16)
		}
	}
}

// TestStaleRecord: a record whose entry does not match the rank's
// program is no verdict — Lookup serves nothing — and GetOrCompile
// re-proves the world once, rewrites the record and serves the same
// bytes as before.
func TestStaleRecord(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	k := KeyFor("ring", 8, mustMapping(t, 2, 4), 3)
	first, err := Open2(t, root).GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "keys", "ring", k.World(), "PROOF")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	editRecord(t, path, func(pf *proof) { pf.Digests[3] = pf.Digests[4] })

	reg := Open2(t, root)
	if rp, err, ok := reg.Lookup(k); ok || rp != nil || err != nil {
		t.Fatalf("stale record: Lookup = (%v, %v, %v), want no verdict", rp != nil, err, ok)
	}
	rp, err := reg.GetOrCompile(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp), encodeRP(t, first)) {
		t.Fatal("re-proved program differs from the first")
	}
	if got := c.proofs.Load(); got != 2 {
		t.Fatalf("world proof ran %d times, want 2 (the first proof and one re-proof)", got)
	}
	if st := reg.Stats(); st.Compiles != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 proof", st)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, good) {
		t.Fatalf("record not rewritten to the proved digests (err %v)", err)
	}
}

// TestUnprovenProgramIsAnError: when a rank's compiled program differs
// from the slice a fresh proof just recorded — GenerateRank and the
// proved schedule disagree — GetOrCompile fails with the generator,
// world and rank, and serves nothing.
func TestUnprovenProgramIsAnError(t *testing.T) {
	countSeams(t) // restores the seams on cleanup
	ogr := generateRank
	generateRank = func(name string, p, rank int, m *topo.Mapping) (*sched.RankProgram, error) {
		rp, err := ogr(name, p, rank, m)
		if err == nil {
			rp.Rounds = append(rp.Rounds, nil)
		}
		return rp, err
	}
	rp, err := Open2(t, t.TempDir()).GetOrCompile(KeyFor("ring", 8, mustMapping(t, 2, 4), 3))
	if rp != nil || err == nil || !strings.Contains(err.Error(), "ring@p8-2x4 rank 3") {
		t.Fatalf("GetOrCompile = (%v, %v), want an error naming ring@p8-2x4 rank 3", rp != nil, err)
	}
}

// editRecord rewrites the PROOF record at path through edit.
func editRecord(t *testing.T, path string, edit func(pf *proof)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pf proof
	if err := json.Unmarshal(b, &pf); err != nil {
		t.Fatal(err)
	}
	edit(&pf)
	if b, err = json.Marshal(pf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestErrorAttribution: a malformed record — undecodable, for another
// generator or world, with the wrong digest count, or with a non-hex
// entry — is an error naming the generator and the world, from Lookup
// and GetOrCompile alike.
func TestErrorAttribution(t *testing.T) {
	root := t.TempDir()
	k := KeyFor("ring", 8, mustMapping(t, 2, 4), 3)
	if _, err := Open2(t, root).GetOrCompile(k); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "keys", "ring", k.World(), "PROOF")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, frag string
		edit       func(pf *proof)
	}{
		{"undecodable", "undecodable", nil},
		{"wrong generator", "torus", func(pf *proof) { pf.Gen = "torus" }},
		{"wrong world", "p8-flat", func(pf *proof) { pf.World = "p8-flat" }},
		{"wrong count", "7 digests", func(pf *proof) { pf.Digests = pf.Digests[:7] }},
		{"non-hex entry", "rank 5", func(pf *proof) { pf.Digests[5] = strings.Repeat("z", 64) }},
	} {
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.edit == nil {
			if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			editRecord(t, path, tc.edit)
		}
		reg := Open2(t, root)
		_, lerr, ok := reg.Lookup(k)
		_, gerr := reg.GetOrCompile(k)
		for _, err := range []error{lerr, gerr} {
			if !ok || err == nil {
				t.Fatalf("%s: malformed record went unnoticed", tc.name)
			}
			for _, frag := range []string{"ring@p8-2x4", tc.frag} {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, frag)
				}
			}
		}
	}
}

// TestParentLayoutReadsEmpty: a world directory holding only the old
// layout's VERIFIED marker and rank refs is no verdict; its world is
// proved on first use.
func TestParentLayoutReadsEmpty(t *testing.T) {
	root := t.TempDir()
	k := KeyFor("ring", 8, nil, 3)
	dir := filepath.Join(root, "keys", "ring", k.World())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"VERIFIED": "verified\n", "rank-3.json": `{"sha256":"` + strings.Repeat("0", 64) + `"}`} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := Open2(t, root)
	if entries, err := reg.List(); err != nil || len(entries) != 0 {
		t.Fatalf("List = %+v, %v; want empty", entries, err)
	}
	if _, err, ok := reg.Lookup(k); ok {
		t.Fatalf("old layout gave a verdict: %v", err)
	}
	if _, err := reg.GetOrCompile(k); err != nil {
		t.Fatal(err)
	}
	if st := reg.Stats(); st.Compiles != 1 {
		t.Fatalf("stats = %+v, want the world proved once", st)
	}
}

// Open2 opens a fresh instance over root, failing the test on error.
func Open2(t *testing.T, root string) *Registry {
	t.Helper()
	reg, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestKeyValidation: malformed keys are refused before any disk or
// generator work.
func TestKeyValidation(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Key{
		{Gen: "", Ranks: 8, Rank: 0},
		{Gen: "../escape", Ranks: 8, Rank: 0},
		{Gen: "ring", Ranks: 1, Rank: 0},
		{Gen: "ring", Ranks: 8, Rank: 8},
		{Gen: "ring", Ranks: 8, Rank: -1},
		{Gen: "ring", Ranks: 8, Rank: 0, Nodes: 2},
		{Gen: "torus", Ranks: 12, Rank: 11, Nodes: 2, PPN: 4}, // 2 x 4 is not 12 ranks
		{Gen: "nosuch", Ranks: 8, Rank: 0},                    // no such generator
		{Gen: "ring", Ranks: sched.MaxRanks + 1, Rank: 0},     // past the schedule id width
	}
	for _, k := range bad {
		if _, err := reg.GetOrCompile(k); err == nil {
			t.Errorf("key %+v accepted", k)
		}
	}
}

// TestNoVerdictForImpossibleWorlds: worlds no generator can have — an
// unknown generator, or more ranks than a schedule can address — leave
// nothing on disk, whether asked through GetOrCompile or Lookup.
func TestNoVerdictForImpossibleWorlds(t *testing.T) {
	reg := Open2(t, t.TempDir())
	for _, k := range []Key{{Gen: "nosuch", Ranks: 8}, {Gen: "ring", Ranks: 50000}} {
		if _, err := reg.GetOrCompile(k); err == nil {
			t.Errorf("GetOrCompile(%+v) succeeded", k)
		}
		if _, err, _ := reg.Lookup(k); err == nil {
			t.Errorf("Lookup(%+v) succeeded", k)
		}
	}
	if files, err := os.ReadDir(filepath.Join(reg.Root(), "keys")); err != nil || len(files) != 0 {
		t.Fatalf("keys/ holds %v (err %v), want nothing", files, err)
	}
}

var errTornWrite = errors.New("injected torn write")

// failSaves makes every record write fail part-way until restore is
// called (or the test ends): the real artifact.Save runs, but its
// encoder writes half the record and fails.
func failSaves(t *testing.T) (restore func()) {
	t.Helper()
	osv := saveArtifact
	saveArtifact = func(path, what string, encode func(io.Writer) error) error {
		return artifact.Save(path, what, func(w io.Writer) error {
			var b bytes.Buffer
			if err := encode(&b); err != nil {
				return err
			}
			w.Write(b.Bytes()[:b.Len()/2])
			return errTornWrite
		})
	}
	restore = func() { saveArtifact = osv }
	t.Cleanup(restore)
	return restore
}

// TestFailedWriteLeavesNoVerdict: when a world's PROOF record or
// REJECTED marker write fails, GetOrCompile serves nothing and names
// the world and the record, and the world directory is left empty. A
// reopened registry whose writes work finds no verdict, proves the
// world once and serves the program, or records the rejection.
func TestFailedWriteLeavesNoVerdict(t *testing.T) {
	c := countSeams(t)
	root := t.TempDir()
	for _, tc := range []struct {
		what string
		k    Key
	}{
		{"PROOF record", KeyFor("ring", 8, mustMapping(t, 2, 4), 3)},
		{"REJECTED marker", KeyFor("hypercube", 6, nil, 0)}, // hypercube needs a power of 2
	} {
		restore := failSaves(t)
		rp, err := Open2(t, root).GetOrCompile(tc.k)
		if rp != nil || !errors.Is(err, errTornWrite) {
			t.Fatalf("%s write failed: GetOrCompile = (%v, %v), want the write's error", tc.what, rp != nil, err)
		}
		for _, frag := range []string{tc.k.genWorld(), tc.what} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("error %q does not mention %q", err, frag)
			}
		}
		dir := filepath.Join(root, "keys", tc.k.Gen, tc.k.World())
		if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
			t.Fatalf("%s write failed, but %s holds %v (err %v)", tc.what, dir, files, err)
		}
		restore()

		reg := Open2(t, root)
		if _, err, ok := reg.Lookup(tc.k); ok {
			t.Fatalf("%s write failed, but a reopened registry found a verdict: %v", tc.what, err)
		}
		proofs := c.proofs.Load()
		rp, err = reg.GetOrCompile(tc.k)
		if got := c.proofs.Load() - proofs; got != 1 {
			t.Fatalf("%s: reopened registry ran the world proof %d times, want 1", tc.what, got)
		}
		if tc.k.Gen == "hypercube" {
			if rp != nil || !errors.Is(err, ErrRejected) {
				t.Fatalf("reopened registry: GetOrCompile = (%v, %v), want the rejection", rp != nil, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.GenerateRank(tc.k.Gen, tc.k.Ranks, tc.k.Rank, mustMapping(t, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) {
			t.Fatal("reopened registry served a program that is not GenerateRank's")
		}
	}
}

// TestList summarizes registry contents after mixed outcomes.
func TestList(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, 2, 4)
	if _, err := reg.GetOrCompile(KeyFor("ring", 8, m, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.GetOrCompile(KeyFor("hypercube", 6, nil, 0)); !errors.Is(err, ErrRejected) {
		t.Fatalf("want rejection, got %v", err)
	}
	entries, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(entries), entries)
	}
	hc, ring := entries[0], entries[1]
	if hc.Gen != "hypercube" || !hc.Rejected || hc.Verified || hc.Programs != 0 {
		t.Fatalf("hypercube entry = %+v", hc)
	}
	if ring.Gen != "ring" || ring.World != "p8-2x4" || !ring.Verified || ring.Rejected {
		t.Fatalf("ring entry = %+v", ring)
	}
	b, err := os.ReadFile(filepath.Join(reg.Root(), "keys", "ring", "p8-2x4", "PROOF"))
	if err != nil {
		t.Fatal(err)
	}
	if ring.Programs != 8 || ring.Bytes != int64(len(b)) {
		t.Fatalf("ring entry = %+v, want 8 programs in a %d-byte record", ring, len(b))
	}
}

// FuzzProofRecord feeds arbitrary bytes as ring@p8-flat's PROOF record.
// Lookup must never panic, and must answer with one of: an error naming
// the generator and the world; no verdict; or GenerateRank's program,
// whose digest is the record's entry for the rank.
func FuzzProofRecord(f *testing.F) {
	k := KeyFor("ring", 8, nil, 3)
	digests, err := sched.Prove(k.Gen, k.Ranks, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid := proof{Gen: k.Gen, World: k.World()}
	for _, d := range digests {
		valid.Digests = append(valid.Digests, hex.EncodeToString(d[:]))
	}
	seed := func(pf proof) []byte {
		b, err := json.Marshal(pf)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := seed(valid)
	short, nonHex := valid, valid
	short.Digests = valid.Digests[:7]
	nonHex.Digests = append([]string(nil), valid.Digests...)
	nonHex.Digests[3] = strings.Repeat("g", 64)
	for _, b := range [][]byte{good, good[:len(good)/2], seed(short), seed(nonHex)} {
		f.Add(b)
	}
	want, err := sched.GenerateRank(k.Gen, k.Ranks, k.Rank, nil)
	if err != nil {
		f.Fatal(err)
	}
	// Inputs run one at a time per process, so they share one root.
	root := f.TempDir()
	dir := filepath.Join(root, "keys", k.Gen, k.World())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, record []byte) {
		if err := os.WriteFile(filepath.Join(dir, "PROOF"), record, 0o644); err != nil {
			t.Fatal(err)
		}
		rp, err, ok := Open2(t, root).Lookup(k)
		switch {
		case err != nil:
			if !ok || rp != nil || !strings.Contains(err.Error(), "ring@p8-flat") {
				t.Fatalf("Lookup = (%v, %q, %v), want an error naming ring@p8-flat", rp != nil, err, ok)
			}
		case rp == nil:
			if ok {
				t.Fatal("Lookup reported a verdict without a program or an error")
			}
		default:
			var pf proof
			if jerr := json.Unmarshal(record, &pf); jerr != nil || !ok {
				t.Fatalf("served a program from an undecodable record (%v)", jerr)
			}
			d := rp.Digest()
			if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) || hex.EncodeToString(d[:]) != pf.Digests[k.Rank] {
				t.Fatal("served a program that is not GenerateRank's or not the record's entry")
			}
		}
	})
}

// FuzzRejectedMarker feeds arbitrary bytes as ring@p8-flat's REJECTED
// marker. Lookup and GetOrCompile must never panic or prove the world:
// each answers an error naming the generator and the world, and a
// marker that decodes is the world's rejection (ErrRejected), one that
// does not is not.
func FuzzRejectedMarker(f *testing.F) {
	c := countSeams(f)
	k := KeyFor("ring", 8, nil, 3)
	for _, b := range []string{`{"error":"sched: ring: no such world"}`, `{"error":""}`, `null`, `{"error":`, `[]`, ``} {
		f.Add([]byte(b))
	}
	// Inputs run one at a time per process, so they share one root.
	root := f.TempDir()
	dir := filepath.Join(root, "keys", k.Gen, k.World())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, marker []byte) {
		if err := os.WriteFile(filepath.Join(dir, "REJECTED"), marker, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := Open2(t, root)
		_, lerr, ok := reg.Lookup(k)
		rp, gerr := reg.GetOrCompile(k)
		if !ok || rp != nil {
			t.Fatalf("Lookup verdict %v, GetOrCompile served %v: want an error from both", ok, rp != nil)
		}
		decodes := json.Unmarshal(marker, new(rejection)) == nil
		for _, err := range []error{lerr, gerr} {
			if err == nil || !strings.Contains(err.Error(), "ring@p8-flat") {
				t.Fatalf("error %v does not name ring@p8-flat", err)
			}
			if errors.Is(err, ErrRejected) != decodes {
				t.Fatalf("marker decodes: %v, but error %q is ErrRejected: %v", decodes, err, !decodes)
			}
		}
		if n := c.proofs.Load(); n != 0 {
			t.Fatalf("a REJECTED marker let the world proof run (%d runs)", n)
		}
	})
}
