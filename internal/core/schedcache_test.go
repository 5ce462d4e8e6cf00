package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sched"
	"alltoallx/internal/schedreg"
	"alltoallx/internal/topo"
)

// schedSeams instruments the world proof and the rank compiler for one
// test. Tests that install it must not be parallel: the seams and the
// cache are package globals.
type schedSeams struct {
	proofs, rankGenerates atomic.Int64
}

func countSchedSeams(t *testing.T) *schedSeams {
	t.Helper()
	var c schedSeams
	opr, ogr := schedProve, schedGenerateRank
	schedProve = func(name string, p int, m *topo.Mapping) ([][sha256.Size]byte, error) {
		c.proofs.Add(1)
		return opr(name, p, m)
	}
	schedGenerateRank = func(name string, p, rank int, m *topo.Mapping) (*sched.RankProgram, error) {
		c.rankGenerates.Add(1)
		return ogr(name, p, rank, m)
	}
	t.Cleanup(func() { schedProve, schedGenerateRank = opr, ogr })
	return &c
}

// delete drops one program from the cache, uncounted.
func (c *schedCacheT) delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
		c.used -= el.Value.(*schedCacheEntry).bytes
	}
}

// dropWorld removes every cache trace of one (gen, p, topo) world so a
// test starts from a cold, unpolluted state and leaves none behind.
func dropWorld(t *testing.T, gen string, p int, m *topo.Mapping) {
	t.Helper()
	clean := func() {
		wk := worldKey(gen, p, m)
		for r := 0; r < p; r++ {
			schedCache.delete(rankKey(wk, r))
		}
		schedCache.mu.Lock()
		delete(schedCache.verdicts, wk)
		schedCache.mu.Unlock()
	}
	clean()
	t.Cleanup(clean)
}

// TestSchedNegativeCacheRunsGeneratorOnce is the regression test for
// repeated doomed constructions: constructing sched:hypercube at a
// 6-rank world twice runs the world's proof, and so the generator,
// exactly once — the second construction (all six ranks of it) is
// answered by the recorded rejection.
func TestSchedNegativeCacheRunsGeneratorOnce(t *testing.T) {
	c := countSchedSeams(t)
	dropWorld(t, "hypercube", 6, nil)

	construct := func() error {
		var firstErr error
		err := runtime.Run(runtime.Config{Ranks: 6}, func(cm comm.Comm) error {
			_, err := New("sched:hypercube", cm, 4, Options{})
			if err == nil {
				return fmt.Errorf("hypercube@6 constructed successfully")
			}
			if cm.Rank() == 0 {
				firstErr = err
			}
			return nil
		})
		if err != nil {
			return err
		}
		return firstErr
	}

	err := construct()
	if err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("first construction: %v", err)
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("first construction ran the proof %d times, want 1 (six ranks raced)", got)
	}
	if err := construct(); err == nil {
		t.Fatal("second construction succeeded")
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("second construction re-ran the proof (%d total runs)", got)
	}
	st := SchedCacheStats()
	if st.NegativeEntries == 0 || st.NegativeHits == 0 {
		t.Fatalf("stats = %+v, want negative entries and hits recorded", st)
	}
}

// TestSchedCacheStatsTransitions pins the counter transitions across the
// miss → hit → eviction → miss lifecycle of one rank. Delta-based: the
// counters are process-lifetime. The rank compiles its own program
// after the world's proof, and again, without re-proving the world, once
// evicted.
func TestSchedCacheStatsTransitions(t *testing.T) {
	c := countSchedSeams(t)
	const gen, p = "pairwise", 11
	dropWorld(t, gen, p, nil)

	base := SchedCacheStats()
	if _, err := rankProgFor(gen, p, 0, nil); err != nil {
		t.Fatal(err)
	}
	st := SchedCacheStats()
	if d := st.Misses - base.Misses; d != 1 {
		t.Fatalf("cold construction: %d misses, want 1", d)
	}
	if d := st.Hits - base.Hits; d != 0 {
		t.Fatalf("cold construction: %d hits, want 0", d)
	}

	if _, err := rankProgFor(gen, p, 0, nil); err != nil {
		t.Fatal(err)
	}
	st2 := SchedCacheStats()
	if d := st2.Hits - st.Hits; d != 1 {
		t.Fatalf("warm construction: %d hits, want 1", d)
	}
	if d := st2.Misses - st.Misses; d != 0 {
		t.Fatalf("warm construction: %d misses, want 0", d)
	}

	// Shrink the limit to zero: everything must evict, counted.
	old := setSchedCacheLimit(0)
	defer setSchedCacheLimit(old)
	st3 := SchedCacheStats()
	if st3.Entries != 0 || st3.Bytes != 0 {
		t.Fatalf("after limit 0: %d entries, %d bytes retained", st3.Entries, st3.Bytes)
	}
	if d := st3.Evictions - st2.Evictions; d < 1 {
		t.Fatalf("eviction not counted (delta %d)", d)
	}
	setSchedCacheLimit(old)

	// The evicted rank misses again and compiles its own program; the
	// world stays proved.
	if _, err := rankProgFor(gen, p, 0, nil); err != nil {
		t.Fatal(err)
	}
	st4 := SchedCacheStats()
	if d := st4.Misses - st3.Misses; d != 1 {
		t.Fatalf("post-eviction construction: %d misses, want 1", d)
	}
	if c.proofs.Load() != 1 || c.rankGenerates.Load() != 2 {
		t.Fatalf("post-eviction construction: %d proofs and %d rank compiles in all, want 1 and 2",
			c.proofs.Load(), c.rankGenerates.Load())
	}
}

// TestSchedConstructionSingleflight: goroutines racing to construct the
// same and different ranks of one world prove it exactly once, compile
// each rank once, share one program instance per rank and observe
// byte-identical programs. Run with -race.
func TestSchedConstructionSingleflight(t *testing.T) {
	c := countSchedSeams(t)
	const gen, p = "ring", 13
	dropWorld(t, gen, p, nil)

	// Same rank key: one proof shared by all.
	const racers = 24
	var wg sync.WaitGroup
	same := make([]*sched.RankProgram, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			same[i], errs[i] = rankProgFor(gen, p, 0, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	if got := c.proofs.Load(); got != 1 {
		t.Fatalf("world proof ran %d times under contention, want 1", got)
	}
	for i := 1; i < racers; i++ {
		if same[i] != same[0] {
			t.Fatal("racers hold different program instances")
		}
	}

	// Different rank keys of a cold world: one proof, then one compile
	// per rank, byte-identical across repeat constructions.
	dropWorld(t, gen, p, nil)
	rps := make([]*sched.RankProgram, 2*p)
	perrs := make([]error, 2*p)
	for i := 0; i < 2*p; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rps[i], perrs[i] = rankProgFor(gen, p, i%p, nil)
		}()
	}
	wg.Wait()
	for i, err := range perrs {
		if err != nil {
			t.Fatalf("rank racer %d: %v", i, err)
		}
	}
	// Encode after the join: racers for one rank share the cached
	// program instance, and Encode writes the receiver's format field.
	progs := make([][]byte, 2*p)
	for i, rp := range rps {
		var buf bytes.Buffer
		if err := rp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		progs[i] = buf.Bytes()
	}
	if got := c.proofs.Load(); got != 2 {
		t.Fatalf("world proof ran %d times in all, want 2 (once per cold world)", got)
	}
	if got := c.rankGenerates.Load(); got != 1+p {
		t.Fatalf("rank generator ran %d times, want %d (once per constructed rank of each world)", got, 1+p)
	}
	for i := 0; i < p; i++ {
		if !bytes.Equal(progs[i], progs[i+p]) {
			t.Fatalf("rank %d: racing constructions disagree on program bytes", i)
		}
	}
}

// TestSchedFetcherFallback pins the SchedFetcher contract: a hit skips
// all local compilation and proof, (nil, nil) falls through to the
// world's local proof, and an error is a recorded definitive rejection.
func TestSchedFetcherFallback(t *testing.T) {
	c := countSchedSeams(t)
	const gen, p = "torus", 9
	dropWorld(t, gen, p, nil)
	t.Cleanup(func() { SetSchedFetcher(nil) })

	// Hit: the service's program is used verbatim; no local compile or
	// world proof runs.
	var fetches atomic.Int64
	SetSchedFetcher(func(g string, ranks int, m *topo.Mapping, rank int) (*sched.RankProgram, error) {
		fetches.Add(1)
		return sched.GenerateRank(g, ranks, rank, m)
	})
	rp, err := rankProgFor(gen, p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Rank != 2 || rp.Ranks != p {
		t.Fatalf("fetched program is rank %d of %d", rp.Rank, rp.Ranks)
	}
	if fetches.Load() != 1 || c.rankGenerates.Load() != 0 || c.proofs.Load() != 0 {
		t.Fatalf("fetch hit ran local work: %d fetches, %d rank compiles, %d proofs",
			fetches.Load(), c.rankGenerates.Load(), c.proofs.Load())
	}
	// Cached: the second construction does not even reach the fetcher.
	if _, err := rankProgFor(gen, p, 2, nil); err != nil {
		t.Fatal(err)
	}
	if fetches.Load() != 1 {
		t.Fatalf("warm construction re-fetched (%d fetches)", fetches.Load())
	}

	// Unavailable: (nil, nil) falls through to the local proof, after
	// which the rank compiles its program.
	dropWorld(t, gen, p, nil)
	SetSchedFetcher(func(string, int, *topo.Mapping, int) (*sched.RankProgram, error) {
		return nil, nil
	})
	if _, err := rankProgFor(gen, p, 3, nil); err != nil {
		t.Fatal(err)
	}
	if c.proofs.Load() != 1 || c.rankGenerates.Load() != 1 {
		t.Fatalf("fallback did not prove locally and compile the rank: %d proofs, %d rank compiles",
			c.proofs.Load(), c.rankGenerates.Load())
	}

	// Definitive rejection: recorded, fetcher consulted once.
	dropWorld(t, gen, p, nil)
	rejected := errors.New("service says no")
	var rejects atomic.Int64
	SetSchedFetcher(func(string, int, *topo.Mapping, int) (*sched.RankProgram, error) {
		rejects.Add(1)
		return nil, rejected
	})
	if _, err := rankProgFor(gen, p, 4, nil); !errors.Is(err, rejected) {
		t.Fatalf("want the service rejection, got %v", err)
	}
	if _, err := rankProgFor(gen, p, 5, nil); !errors.Is(err, rejected) {
		t.Fatalf("sibling rank: want the cached rejection, got %v", err)
	}
	if rejects.Load() != 1 {
		t.Fatalf("rejection consulted the fetcher %d times, want 1", rejects.Load())
	}
}

// TestSchedFetcherStaleProof: a registry whose proof record holds a
// wrong digest for one rank never gets that rank's program run
// unproven — RegistryFetcher's lookup misses the stale entry, the
// registry re-proves the world and hands the rank its program, and core
// runs no proof of its own.
func TestSchedFetcherStaleProof(t *testing.T) {
	c := countSchedSeams(t)
	const gen, p = "torus", 9
	dropWorld(t, gen, p, nil)
	t.Cleanup(func() { SetSchedFetcher(nil) })
	root := t.TempDir()
	reg, err := schedreg.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.GetOrCompile(schedreg.KeyFor(gen, p, nil, 0)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "keys", gen, "p9-flat", "PROOF")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		Gen     string   `json:"gen"`
		World   string   `json:"world"`
		Digests []string `json:"digests"`
	}
	if err := json.Unmarshal(b, &pf); err != nil {
		t.Fatal(err)
	}
	pf.Digests[2] = pf.Digests[1]
	if b, err = json.Marshal(pf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	stale, err := schedreg.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err, ok := stale.Lookup(schedreg.KeyFor(gen, p, nil, 2)); ok {
		t.Fatalf("stale entry: Lookup gave a verdict (%v)", err)
	}

	SetSchedFetcher(schedreg.RegistryFetcher(stale))
	rp, err := rankProgFor(gen, p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GenerateRank(gen, p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Digest() != want.Digest() {
		t.Fatal("constructed program differs from local compilation")
	}
	if st := stale.Stats(); st.Misses != 1 || st.Compiles != 1 || st.Hits != 0 {
		t.Fatalf("registry stats = %+v, want the stale rank to miss and re-prove the world once", st)
	}
	if c.proofs.Load() != 0 || c.rankGenerates.Load() != 0 {
		t.Fatalf("stale rank: core ran %d proofs and %d rank compiles, want 0 and 0",
			c.proofs.Load(), c.rankGenerates.Load())
	}
}

// TestSchedFetcherForcesSlicedPath: with a fetcher installed, even a
// small world's ranks take their programs from the service, and no local
// proof runs.
func TestSchedFetcherForcesSlicedPath(t *testing.T) {
	c := countSchedSeams(t)
	const gen, p = "direct", 7
	dropWorld(t, gen, p, nil)
	t.Cleanup(func() { SetSchedFetcher(nil) })
	var fetches atomic.Int64
	SetSchedFetcher(func(g string, ranks int, m *topo.Mapping, rank int) (*sched.RankProgram, error) {
		fetches.Add(1)
		return sched.GenerateRank(g, ranks, rank, m)
	})
	err := runtime.Run(runtime.Config{Ranks: p}, func(cm comm.Comm) error {
		a, err := New("sched:"+gen, cm, 4, Options{})
		if err != nil {
			return err
		}
		if rp := a.(*schedState).Program(); rp == nil || rp.Rank != cm.Rank() {
			return fmt.Errorf("fetcher-backed construction program = %+v", rp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fetches.Load() != p || c.proofs.Load() != 0 {
		t.Fatalf("%d fetches and %d local proofs, want %d and 0", fetches.Load(), c.proofs.Load(), p)
	}
}
