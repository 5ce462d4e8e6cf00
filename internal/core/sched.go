package core

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"alltoallx/internal/comm"
	"alltoallx/internal/sched"
	"alltoallx/internal/singleflight"
	"alltoallx/internal/topo"
)

// This file registers every schedule generator of internal/sched as a
// first-class algorithm named "sched:<generator>". Construction compiles
// the schedule for the communicator's world, statically verifies it — an
// unverifiable schedule never runs — and wraps the executor in the same
// persistent-operation shell as every other algorithm, so
// Start/Test/Wait handles, tuned dispatch, autotune sweeps, the bench
// harness and the trace phase breakdown all work on schedules with zero
// special-casing.
//
// Worlds of at most schedSliceRanks ranks compile and verify the
// assembled schedule (the authoritative full symbolic proof). Larger
// worlds use rank-sliced compilation: each rank builds only its own
// sched.RankProgram — O(slice), never O(p^2) — verified locally per
// slice plus once per world by the streaming cross-rank verifier.
//
// Construction consults, in order: the in-process LRU cache, the
// schedule service (when a fetcher is installed via SetSchedFetcher),
// and local compilation. The service's "daemon → disk" ordering
// describes the system end-to-end — the daemon fronts the disk
// registry — but within a process the LRU is consulted first: it is the
// cheapest tier, and programs are immutable once verified, so a cached
// copy can never be stale relative to the service.

// SchedPrefix is the registry namespace of schedule-backed algorithms.
const SchedPrefix = "sched:"

// schedSliceRanks is the whole-world ceiling: above it, construction
// switches to rank-sliced compilation and streaming verification. Two
// costs pin it at the old 128-rank candidate cap: the full verifier's
// symbolic state is O(p · slots) — O(p^3) slots for the route schedules —
// and the assembled schedule must fit the bounded cache below, or every
// rank's construction would miss and recompile the whole world (the ring
// schedule at 256 ranks is already ~800 MB of steps).
const schedSliceRanks = 128

// Test seams for the compilation entry points, so tests can count
// generator invocations (proving the negative cache and singleflight
// actually prevent runs) without touching the generators themselves.
var (
	schedGenerate          = sched.Generate
	schedGenerateRank      = sched.GenerateRank
	schedVerifyWorldSliced = sched.VerifyWorldSliced
)

// SchedFetcher is the schedule-service hook: it resolves a
// (generator, world, rank) to a rank program against a shared world
// proof — the a2aschedd daemon's or a disk registry's. The contract is
// three-valued:
//
//	(rp, nil)   hit — rp is a program the fetcher compiled in this
//	            process and matched against a verified world proof;
//	            core runs it as is, with no VerifyRank and no world
//	            verification of its own
//	(nil, err)  definitive rejection — the world cannot be compiled;
//	            core negative-caches the error
//	(nil, nil)  service unavailable — fall through to local compilation
type SchedFetcher func(gen string, p int, m *topo.Mapping, rank int) (*sched.RankProgram, error)

var schedFetcherHook struct {
	sync.RWMutex
	f SchedFetcher // guarded by RWMutex
}

// SetSchedFetcher installs (or, with nil, removes) the schedule-service
// fetcher. While a fetcher is installed, schedule-backed algorithms
// construct through the rank-sliced path at every world size, since the
// service resolves rank programs. Install once at process startup (cmd
// wiring), before constructions begin.
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

// schedState is the persistent form of a schedule-backed algorithm: the
// verified schedule (or this rank's slice of it) plus its executor's
// cached scratch buffers.
type schedState struct {
	*basic
	ex *sched.Exec
}

func (st *schedState) run(c comm.Comm, send, recv comm.Buffer, block int) error {
	return st.ex.Run(c, send, recv, block, st.basic.rec)
}

// Schedule exposes the compiled whole-world schedule for inspection
// (cmd/a2asched and tests); it is reachable through a type assertion:
//
//	s := a.(interface{ Schedule() *sched.Schedule }).Schedule()
//
// Above the slicing threshold no assembled schedule exists and Schedule
// returns nil; Program always reflects what this rank runs.
func (st *schedState) Schedule() *sched.Schedule { return st.ex.Schedule() }

// Program exposes this rank's compiled program (the slice executed on the
// large-world path, or the lazy slice of the whole-world schedule).
func (st *schedState) Program() *sched.RankProgram { return st.ex.Program() }

// schedCache shares compiled-and-verified schedule artifacts across the
// ranks and operations of a process: whole-world schedules below the
// slicing threshold (generators are deterministic and schedules immutable
// after verification, so sharing is safe — without it every rank of an
// SPMD program would compile its own copy, turning an O(p^2) construction
// into O(p^3) across ranks) and per-rank programs above it. Retained
// bytes are capped: entries are evicted least-recently-used, so an
// autotune sweep over many world shapes no longer accretes every
// schedule it ever compiled. Eviction only bounds reuse, not
// correctness — live executors keep their own references.
//
// Alongside the positive entries it keeps a negative cache: worlds a
// generator rejected (hypercube at a non-power-of-2 world, say) are
// remembered as their error, so repeated construction attempts — every
// rank of an SPMD program, or an autotune sweep probing all generators —
// run the failing generator once, not once per attempt. Negative
// entries are O(error string) and uncounted against the byte limit.
type schedCacheT struct {
	mu    sync.Mutex
	limit int64                    // guarded by mu
	used  int64                    // guarded by mu
	ll    *list.List               // front = most recently used; values are *schedCacheEntry; guarded by mu
	m     map[string]*list.Element // guarded by mu
	neg   map[string]error         // guarded by mu

	hits, misses, evictions, negHits int64 // guarded by mu
}

type schedCacheEntry struct {
	key   string
	bytes int64
	s     *sched.Schedule
	rp    *sched.RankProgram
}

// schedCacheDefaultLimit bounds retained schedule bytes per process.
// Rank slices are small (O(blocks through the rank)), so this holds
// thousands of them, and schedSliceRanks is chosen so the largest
// whole-world schedule the full path can compile (ring at the threshold,
// ~100 MB) fits with room to spare — an entry that exceeded the limit
// would be evicted immediately and every rank of the world would
// recompile it.
const schedCacheDefaultLimit = 256 << 20

var schedCache = &schedCacheT{
	limit: schedCacheDefaultLimit,
	ll:    list.New(),
	m:     make(map[string]*list.Element),
	neg:   make(map[string]error),
}

// schedFlight coalesces concurrent constructions of the same cache key:
// N racing goroutines run the generator once and share the result (the
// cache then serves everyone after the flight lands).
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

func (c *schedCacheT) put(e *schedCacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.m[e.key] = c.ll.PushFront(e)
	c.used += e.bytes
	c.evictLocked()
}

// getNeg answers from the negative cache (counted).
func (c *schedCacheT) getNeg(key string) (error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err, ok := c.neg[key]
	if ok {
		c.negHits++
	}
	return err, ok
}

// peekNeg is getNeg without counters (flight-internal re-check).
func (c *schedCacheT) peekNeg(key string) (error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err, ok := c.neg[key]
	return err, ok
}

// putNeg records a definitive construction failure.
func (c *schedCacheT) putNeg(key string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.neg[key] = err
}

// deleteNeg forgets a negative verdict (tests).
func (c *schedCacheT) deleteNeg(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.neg, key)
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

func (c *schedCacheT) delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		ev := el.Value.(*schedCacheEntry)
		c.ll.Remove(el)
		delete(c.m, key)
		c.used -= ev.bytes
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
// the lifetime counters of how it got there. Surfaced by `a2asched
// list`.
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
	return CacheStats{
		Entries:         schedCache.ll.Len(),
		Bytes:           schedCache.used,
		NegativeEntries: len(schedCache.neg),
		Hits:            schedCache.hits,
		Misses:          schedCache.misses,
		Evictions:       schedCache.evictions,
		NegativeHits:    schedCache.negHits,
	}
}

// verifiedWorlds records the streaming cross-rank verification verdict
// per (generator, world shape): the check walks every rank's slice, so
// one pass per world per process is enough. Entries are a string and an
// error — O(worlds touched), not O(schedule).
var verifiedWorlds = struct {
	sync.Mutex
	m map[string]error // guarded by Mutex
}{m: make(map[string]error)}

func worldKey(gen string, p int, m *topo.Mapping) string {
	return fmt.Sprintf("%s|%d|%s", gen, p, topoKey(m))
}

// schedFor returns the verified whole-world schedule for a generator at
// a p-rank world mapped by m, compiling it on first use (the
// at-or-below-threshold path). Concurrent callers for one world
// coalesce into a single compilation; rejections are negative-cached so
// the failing generator runs once per world, not once per construction
// attempt.
func schedFor(gen string, p int, m *topo.Mapping) (*sched.Schedule, error) {
	wk := worldKey(gen, p, m)
	key, nkey := "w|"+wk, "n|"+wk
	if e, ok := schedCache.get(key); ok {
		return e.s, nil
	}
	if err, ok := schedCache.getNeg(nkey); ok {
		return nil, err
	}
	v, err, _ := schedFlight.Do(key, func() (any, error) {
		if e, ok := schedCache.peek(key); ok {
			return e.s, nil
		}
		if err, ok := schedCache.peekNeg(nkey); ok {
			return nil, err
		}
		s, err := schedGenerate(gen, p, m)
		if err != nil {
			err = fmt.Errorf("core: %s%s: %w", SchedPrefix, gen, err)
			schedCache.putNeg(nkey, err)
			return nil, err
		}
		if err := sched.Verify(s); err != nil {
			err = fmt.Errorf("core: %s%s failed static verification: %w", SchedPrefix, gen, err)
			schedCache.putNeg(nkey, err)
			return nil, err
		}
		schedCache.put(&schedCacheEntry{key: key, bytes: s.MemBytes(), s: s})
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sched.Schedule), nil
}

// rankProgFor returns rank's verified program for a generator at a
// p-rank world (the above-threshold path, and the only path while a
// schedule-service fetcher is installed): in order, the in-process
// cache, the schedule service, then direct compilation — O(slice)
// memory — with the cross-rank properties proved once per world by the
// streaming verifier (or by the service's world proof). Any
// whole-world entry for the same world is evicted: once a world is
// sliced, the assembled schedule must not linger in the cache.
func rankProgFor(gen string, p, rank int, m *topo.Mapping) (*sched.RankProgram, error) {
	wk := worldKey(gen, p, m)
	key, nkey := fmt.Sprintf("r|%s|%d", wk, rank), "n|"+wk
	if e, ok := schedCache.get(key); ok {
		return e.rp, nil
	}
	if err, ok := schedCache.getNeg(nkey); ok {
		return nil, err
	}
	v, err, _ := schedFlight.Do(key, func() (any, error) {
		if e, ok := schedCache.peek(key); ok {
			return e.rp, nil
		}
		if err, ok := schedCache.peekNeg(nkey); ok {
			return nil, err
		}
		if f := schedFetcher(); f != nil {
			rp, ferr := f(gen, p, m, rank)
			switch {
			case ferr != nil:
				ferr = fmt.Errorf("core: %s%s: %w", SchedPrefix, gen, ferr)
				schedCache.putNeg(nkey, ferr)
				return nil, ferr
			case rp != nil:
				// Compiled here and matched against the service's world
				// proof: the slice that proof verified, byte for byte.
				schedCache.delete("w|" + wk)
				schedCache.put(&schedCacheEntry{key: key, bytes: rp.MemBytes(), rp: rp})
				return rp, nil
			}
			// (nil, nil): service unavailable — compile locally.
		}
		verifiedWorlds.Lock()
		werr, checked := verifiedWorlds.m[wk]
		if !checked {
			werr = schedVerifyWorldSliced(gen, p, m)
			verifiedWorlds.m[wk] = werr
		}
		verifiedWorlds.Unlock()
		if werr != nil {
			werr = fmt.Errorf("core: %s%s failed streamed verification: %w", SchedPrefix, gen, werr)
			schedCache.putNeg(nkey, werr)
			return nil, werr
		}
		schedCache.delete("w|" + wk)
		rp, err := schedGenerateRank(gen, p, rank, m)
		if err != nil {
			// Rank-range errors cannot reach here (rank comes from a live
			// communicator), so a generator refusal is a world property.
			err = fmt.Errorf("core: %s%s: %w", SchedPrefix, gen, err)
			schedCache.putNeg(nkey, err)
			return nil, err
		}
		// No per-slice VerifyRank here: the streamed world pass above already
		// ran the identical local checks on every rank's slice, and
		// generation is deterministic, so this regeneration is byte-identical
		// to what it proved — re-walking it would double the construction
		// cost of every above-threshold world.
		schedCache.put(&schedCacheEntry{key: key, bytes: rp.MemBytes(), rp: rp})
		return rp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sched.RankProgram), nil
}

// topoKey fingerprints the part of the topology generators consume (the
// nodes x ppn grid).
func topoKey(m *topo.Mapping) string {
	if m == nil {
		return "flat"
	}
	return fmt.Sprintf("%dx%d", m.Nodes(), m.PPN())
}

// newSchedExec compiles and verifies gen's schedule for c's world and
// wraps it in a fresh executor; sliced selects the rank-sliced
// construction path.
func newSchedExec(gen string, c comm.Comm, sliced bool) (*sched.Exec, error) {
	if sliced {
		rp, err := rankProgFor(gen, c.Size(), c.Rank(), c.Topo())
		if err != nil {
			return nil, err
		}
		return sched.NewRankExec(rp), nil
	}
	s, err := schedFor(gen, c.Size(), c.Topo())
	if err != nil {
		return nil, err
	}
	return sched.NewExec(s), nil
}

// NewSchedExec compiles, statically verifies, caches and wraps the named
// generator's schedule for c's world, choosing the whole-world or
// rank-sliced construction path exactly as the sched:* algorithm
// registry does (sliced above schedSliceRanks ranks and whenever a
// schedule-service fetcher is installed). It is the building block for
// running schedules outside the Alltoaller shell — collx's
// schedule-backed reductions and the sched-backed alltoallv dispatcher
// construct through it, sharing the LRU cache, the negative cache, the
// singleflight coalescing and the schedule service with every other
// consumer. Callers running reduction schedules must install an operator
// via Exec.SetOp before Run.
func NewSchedExec(gen string, c comm.Comm) (*sched.Exec, error) {
	if c == nil {
		return nil, errNilComm
	}
	sliced := c.Size() > schedSliceRanks || schedFetcher() != nil
	return newSchedExec(gen, c, sliced)
}

// newSchedState builds the persistent operation; sliced selects the
// rank-sliced construction path (forced above schedSliceRanks, and
// whenever a schedule-service fetcher is installed — the service resolves
// rank programs).
func newSchedState(gen string, c comm.Comm, maxBlock int, sliced bool) (Alltoaller, error) {
	st := &schedState{}
	ex, err := newSchedExec(gen, c, sliced)
	if err != nil {
		return nil, err
	}
	st.ex = ex
	st.basic = newBasic(SchedPrefix+gen, c, maxBlock, st.run)
	return st, nil
}

func newSchedFactory(gen string) factory {
	return func(c comm.Comm, maxBlock int, _ Options) (Alltoaller, error) {
		sliced := c.Size() > schedSliceRanks || schedFetcher() != nil
		return newSchedState(gen, c, maxBlock, sliced)
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
