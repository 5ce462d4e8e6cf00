package core

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"alltoallx/internal/comm"
	"alltoallx/internal/sched"
	"alltoallx/internal/singleflight"
	"alltoallx/internal/topo"
)

// This file registers every schedule generator of internal/sched as a
// first-class algorithm named "sched:<generator>". Construction resolves
// the calling rank's program — proved before it ever runs — and wraps
// its executor in the same persistent-operation shell as every other
// algorithm, so Start/Test/Wait handles, tuned dispatch, autotune
// sweeps, the bench harness and the trace phase breakdown all work on
// schedules with zero special-casing.
//
// Every rank runs its own sched.RankProgram, at every world size.
// Construction consults, in order: the in-process LRU cache, the
// schedule service (a registry directory shared between processes, when
// a fetcher is installed via SetSchedFetcher), and the world's proof,
// sched.Prove, which runs once per world per process and leaves only its
// verdict. A rank of a proved world then compiles its own program with
// sched.GenerateRank, the deterministic function the proof walked. The
// LRU comes first because it is the cheapest tier, and programs are
// immutable once proved, so a cached copy can never be stale relative
// to the service.

// SchedPrefix is the registry namespace of schedule-backed algorithms.
const SchedPrefix = "sched:"

// Test seams for the world proof and the rank compiler, so tests can
// count how often each runs (proving the verdicts and singleflight
// actually prevent runs) without touching the generators themselves.
var (
	schedProve        = sched.Prove
	schedGenerateRank = sched.GenerateRank
)

// SchedFetcher is the schedule-service hook: it resolves a
// (generator, world, rank) to a rank program against a shared world
// proof, such as a disk registry's (schedreg.RegistryFetcher). The
// contract is three-valued:
//
//	(rp, nil)   hit — rp is a program the fetcher compiled in this
//	            process and matched against a verified world proof;
//	            core runs it as is, with no proof of its own
//	(nil, err)  definitive rejection — the world cannot be compiled;
//	            core records the error as the world's verdict
//	(nil, nil)  service unavailable — fall through to the local proof
type SchedFetcher func(gen string, p int, m *topo.Mapping, rank int) (*sched.RankProgram, error)

var schedFetcherHook struct {
	sync.RWMutex
	f SchedFetcher // guarded by RWMutex
}

// SetSchedFetcher installs (or, with nil, removes) the schedule-service
// fetcher, which schedule-backed algorithms consult before proving a
// world locally. Install once at process startup (cmd wiring), before
// constructions begin.
func SetSchedFetcher(f SchedFetcher) {
	schedFetcherHook.Lock()
	schedFetcherHook.f = f
	schedFetcherHook.Unlock()
}

func schedFetcher() SchedFetcher {
	schedFetcherHook.RLock()
	defer schedFetcherHook.RUnlock()
	return schedFetcherHook.f
}

// schedState is the persistent form of a schedule-backed algorithm: this
// rank's proved program plus its executor's cached scratch buffers.
type schedState struct {
	*basic
	ex *sched.Exec
}

func (st *schedState) run(c comm.Comm, send, recv comm.Buffer, block int) error {
	return st.ex.Run(c, send, recv, block, st.basic.rec)
}

// Program exposes the rank program this rank runs, for inspection; it
// is reachable through a type assertion:
//
//	rp := a.(interface{ Program() *sched.RankProgram }).Program()
func (st *schedState) Program() *sched.RankProgram { return st.ex.Program() }

// schedCache shares proved rank programs across the ranks and operations
// of a process (generators are deterministic and programs immutable
// after their world's proof, so sharing is safe). Retained bytes are
// capped: entries are evicted least-recently-used, so an autotune sweep
// over many world shapes no longer accretes every program it ever
// compiled. Eviction only bounds reuse, not correctness — live
// executors keep their own references, and an evicted rank of a proved
// world recompiles its program.
//
// Alongside the programs it keeps one proof verdict per (generator,
// world): nil once the world is proved, or the error that rejected it
// (hypercube at a non-power-of-2 world, say). Every rank of an SPMD
// program, or an autotune sweep probing all generators, then runs a
// world's proof once, not once per attempt. Verdicts are O(error
// string) and uncounted against the byte limit.
type schedCacheT struct {
	mu       sync.Mutex
	limit    int64                    // guarded by mu
	used     int64                    // guarded by mu
	ll       *list.List               // front = most recently used; values are *schedCacheEntry; guarded by mu
	m        map[string]*list.Element // guarded by mu
	verdicts map[string]error         // keyed by worldKey; guarded by mu

	hits, misses, evictions, negHits int64 // guarded by mu
}

type schedCacheEntry struct {
	key   string
	bytes int64
	rp    *sched.RankProgram
}

// schedCacheDefaultLimit bounds retained program bytes per process. The
// cache holds the programs the process's ranks compiled: every rank of
// a 128-rank ring world, 61 MB by MemBytes (1.08 M steps), fits with
// room to spare, and a rank evicted from a larger world recompiles its
// own program.
const schedCacheDefaultLimit = 256 << 20

var schedCache = &schedCacheT{
	limit:    schedCacheDefaultLimit,
	ll:       list.New(),
	m:        make(map[string]*list.Element),
	verdicts: make(map[string]error),
}

// schedFlight coalesces concurrent constructions of one rank program,
// and concurrent proofs of one world: N racing goroutines do the work
// once and share the result.
var schedFlight singleflight.Group

// get is the counted lookup: a construction's first probe. Misses are
// counted here so hits + misses equals the construction attempts that
// reached the cache.
func (c *schedCacheT) get(key string) (*schedCacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*schedCacheEntry), true
}

// peek is the uncounted lookup used inside a singleflight execution to
// close the lost-race window (a caller that missed get but entered a
// fresh flight after an earlier one landed); it must not distort the
// hit/miss counters.
func (c *schedCacheT) peek(key string) (*schedCacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*schedCacheEntry), true
}

func (c *schedCacheT) put(key string, rp *sched.RankProgram) {
	e := &schedCacheEntry{key: key, bytes: rp.MemBytes(), rp: rp}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(e)
	c.used += e.bytes
	c.evictLocked()
}

// rejection returns the world's recorded rejection (nil when it has none
// or was proved), counting the negative hit.
func (c *schedCacheT) rejection(wk string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.verdicts[wk]
	if err != nil {
		c.negHits++
	}
	return err
}

// verdict returns the world's recorded verdict, if any (uncounted).
func (c *schedCacheT) verdict(wk string) (error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err, ok := c.verdicts[wk]
	return err, ok
}

// setVerdict records a world's verdict: nil for proved.
func (c *schedCacheT) setVerdict(wk string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verdicts[wk] = err
}

// evictLocked drops least-recently-used entries until the retained bytes
// fit the limit. Callers hold c.mu.
func (c *schedCacheT) evictLocked() {
	for c.used > c.limit && c.ll.Len() > 0 {
		back := c.ll.Back()
		ev := back.Value.(*schedCacheEntry)
		c.ll.Remove(back)
		delete(c.m, ev.key)
		c.used -= ev.bytes
		c.evictions++
	}
}

// setSchedCacheLimit adjusts the retained-bytes cap (evicting immediately
// if needed) and returns the previous limit. Tests use it to pin the
// bound; a zero or negative limit keeps nothing.
func setSchedCacheLimit(limit int64) int64 {
	schedCache.mu.Lock()
	defer schedCache.mu.Unlock()
	old := schedCache.limit
	schedCache.limit = limit
	schedCache.evictLocked()
	return old
}

// schedCacheStats reports the cache's entry count and retained bytes.
func schedCacheStats() (entries int, bytes int64) {
	schedCache.mu.Lock()
	defer schedCache.mu.Unlock()
	return schedCache.ll.Len(), schedCache.used
}

// CacheStats is the schedule cache's observable state: what it holds and
// the lifetime counters of how it got there. perfbench reports it.
type CacheStats struct {
	// Entries and Bytes describe what the cache currently retains.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// NegativeEntries counts remembered (generator, world) rejections.
	NegativeEntries int `json:"negative_entries"`
	// Hits/Misses count constructions served from / missing the cache;
	// Evictions counts entries dropped by the byte limit; NegativeHits
	// counts constructions answered by a remembered rejection.
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	NegativeHits int64 `json:"negative_hits"`
}

// SchedCacheStats snapshots the schedule cache counters.
func SchedCacheStats() CacheStats {
	schedCache.mu.Lock()
	defer schedCache.mu.Unlock()
	st := CacheStats{
		Entries:      schedCache.ll.Len(),
		Bytes:        schedCache.used,
		Hits:         schedCache.hits,
		Misses:       schedCache.misses,
		Evictions:    schedCache.evictions,
		NegativeHits: schedCache.negHits,
	}
	for _, err := range schedCache.verdicts {
		if err != nil {
			st.NegativeEntries++
		}
	}
	return st
}

// worldKey names a (generator, world shape); rankKey one rank of it.
func worldKey(gen string, p int, m *topo.Mapping) string {
	return fmt.Sprintf("%s|%d|%s", gen, p, topoKey(m))
}

func rankKey(wk string, rank int) string { return wk + "|" + strconv.Itoa(rank) }

// rankProgFor returns rank's proved program for a generator at a p-rank
// world: in order, the in-process cache, the schedule service, then the
// world's proof and GenerateRank.
func rankProgFor(gen string, p, rank int, m *topo.Mapping) (*sched.RankProgram, error) {
	wk := worldKey(gen, p, m)
	key := rankKey(wk, rank)
	if e, ok := schedCache.get(key); ok {
		return e.rp, nil
	}
	if err := schedCache.rejection(wk); err != nil {
		return nil, err
	}
	v, err, _ := schedFlight.Do(key, func() (any, error) {
		if e, ok := schedCache.peek(key); ok {
			return e.rp, nil
		}
		if f := schedFetcher(); f != nil {
			rp, ferr := f(gen, p, m, rank)
			switch {
			case ferr != nil:
				ferr = fmt.Errorf("core: %s%s: %w", SchedPrefix, gen, ferr)
				schedCache.setVerdict(wk, ferr)
				return nil, ferr
			case rp != nil:
				// Compiled here and matched against the service's world
				// proof: the slice that proof verified, byte for byte.
				schedCache.put(key, rp)
				return rp, nil
			}
			// (nil, nil): service unavailable — prove locally.
		}
		if err := proveOnce(gen, p, m, wk); err != nil {
			return nil, err
		}
		// No VerifyRank here: the world's proof already checked this
		// rank's program, and generation is deterministic, so this
		// compile is byte-identical to what it proved.
		rp, err := schedGenerateRank(gen, p, rank, m)
		if err != nil {
			return nil, fmt.Errorf("core: %s%s: %w", SchedPrefix, gen, err)
		}
		schedCache.put(key, rp)
		return rp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sched.RankProgram), nil
}

// proveOnce runs a world's proof once per process, coalescing
// concurrent callers, and records its verdict.
func proveOnce(gen string, p int, m *topo.Mapping, wk string) error {
	_, err, _ := schedFlight.Do(wk, func() (any, error) {
		if err, ok := schedCache.verdict(wk); ok {
			return nil, err
		}
		_, err := schedProve(gen, p, m)
		if err != nil {
			err = fmt.Errorf("core: %s%s: %w", SchedPrefix, gen, err)
		}
		schedCache.setVerdict(wk, err)
		return nil, err
	})
	return err
}

// topoKey fingerprints the part of the topology generators consume (the
// nodes x ppn grid).
func topoKey(m *topo.Mapping) string {
	if m == nil {
		return "flat"
	}
	return fmt.Sprintf("%dx%d", m.Nodes(), m.PPN())
}

// NewSchedExec resolves, caches and wraps the named generator's program
// for c's rank exactly as the sched:* algorithm registry does. It is the
// building block for running schedules outside the Alltoaller shell —
// collx's schedule-backed reductions construct through it, sharing the
// LRU cache, the world verdicts, the singleflight coalescing and the
// schedule service with every other consumer. Callers running reduction
// schedules must install an operator via Exec.SetOp before Run.
func NewSchedExec(gen string, c comm.Comm) (*sched.Exec, error) {
	if c == nil {
		return nil, errNilComm
	}
	rp, err := rankProgFor(gen, c.Size(), c.Rank(), c.Topo())
	if err != nil {
		return nil, err
	}
	return sched.NewRankExec(rp), nil
}

func newSchedFactory(gen string) factory {
	return func(c comm.Comm, maxBlock int, _ Options) (Alltoaller, error) {
		ex, err := NewSchedExec(gen, c)
		if err != nil {
			return nil, err
		}
		st := &schedState{ex: ex}
		st.basic = newBasic(SchedPrefix+gen, c, maxBlock, st.run)
		return st, nil
	}
}

// SchedNames returns the registered schedule-backed algorithm names,
// sorted.
func SchedNames() []string {
	var out []string
	for _, n := range Names() {
		if strings.HasPrefix(n, SchedPrefix) {
			out = append(out, n)
		}
	}
	return out
}

func init() {
	for _, g := range sched.Generators() {
		registry[SchedPrefix+g] = newSchedFactory(g)
	}
}
