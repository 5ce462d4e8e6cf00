package core

import (
	"fmt"
	"math"

	"alltoallx/internal/comm"
)

// Online refinement keeps a tuned dispatch table honest after the offline
// sweep: machines drift (firmware, congestion, fabric degradation), and a
// table tuned on yesterday's machine model can dispatch to yesterday's
// winner. In refinement mode the dispatcher runs an incumbent-vs-
// challenger loop per size bucket: most calls run the tabled incumbent,
// every TrialEvery-th call runs a challenger drawn from the neighboring
// buckets' winners (when the machine drifts, crossover points move, so
// the adjacent bucket's algorithm is exactly the plausible usurper), and
// both sides' timings land in rings of recent observations. Once both
// windows are full the ranks agree on worst-rank window means with a
// dissemination max-allreduce and promote the challenger only if it beats
// the incumbent by the hysteresis fraction — the same damping the bucket
// logic uses against boundary thrash, here against timing noise.
//
// Every decision point is deterministic in the call sequence (SPMD: all
// ranks see the same blocks, buckets and call counts), so ranks trial,
// construct and promote in lockstep even though their local timings
// differ; the allreduce is what makes the *decision* collective. The
// dispatcher mutates only its own per-instance copy of the entries — the
// Dispatch spec in Options is shared across ranks in-process and is never
// written. Persistence stays with the caller: OnPromote (rank 0 only)
// reports each promotion so the owner of the autotune table can rewrite
// it through the atomic artifact discipline.

// OnlineConfig enables and parameterizes online refinement of a tuned
// dispatcher (Options.Online).
type OnlineConfig struct {
	// Window is the number of recent observations per side (incumbent,
	// challenger) a promotion decision compares. Default 8.
	Window int
	// TrialEvery runs a challenger every N-th call in a bucket (the
	// deterministic epsilon of the epsilon-greedy loop: epsilon = 1/N).
	// Default 8; minimum 2 (every call a trial would starve the incumbent
	// window).
	TrialEvery int
	// MinImprove is the promotion hysteresis: a challenger is promoted
	// only when its agreed window mean beats the incumbent's by this
	// fraction. Default tunedHysteresis (0.25), reusing the bucket
	// logic's damping.
	MinImprove float64
	// OnPromote, if non-nil, is invoked on rank 0 only, after the
	// collective promotion decision, with the refreshed entry. Callers
	// use it to rewrite the persisted autotune table (atomically — see
	// internal/artifact); the dispatcher itself never touches disk.
	OnPromote func(PromoteEvent)
}

func (cfg OnlineConfig) withDefaults() OnlineConfig {
	if cfg.Window == 0 {
		cfg.Window = 8
	}
	if cfg.TrialEvery == 0 {
		cfg.TrialEvery = 8
	}
	if cfg.MinImprove == 0 {
		cfg.MinImprove = tunedHysteresis
	}
	return cfg
}

func (cfg OnlineConfig) validate() error {
	if cfg.Window < 1 {
		return fmt.Errorf("core: online Window %d, need >= 1", cfg.Window)
	}
	if cfg.TrialEvery < 2 {
		return fmt.Errorf("core: online TrialEvery %d, need >= 2 (every call a trial starves the incumbent window)", cfg.TrialEvery)
	}
	if cfg.MinImprove < 0 || cfg.MinImprove >= 1 {
		return fmt.Errorf("core: online MinImprove %g, need 0 <= f < 1", cfg.MinImprove)
	}
	return nil
}

// PromoteEvent describes one collective challenger promotion.
type PromoteEvent struct {
	// Op is the dispatcher's operation kind.
	Op Op
	// Bucket is the promoted entry's index in the dispatch spec.
	Bucket int
	// Old and New are the bucket's entry before and after promotion (the
	// MaxBlock boundary never changes — only who serves the bucket).
	Old, New DispatchEntry
	// OldMean and NewMean are the agreed worst-rank window means (s) the
	// decision compared.
	OldMean, NewMean float64
	// Generation counts promotions across the dispatcher's lifetime;
	// this event is number Generation (1-based).
	Generation int
}

// OnlineStats is a snapshot of the refinement loop, observable on either
// tuned dispatcher through a type assertion:
//
//	s := a.(interface{ OnlineStats() OnlineStats }).OnlineStats()
type OnlineStats struct {
	// Enabled is false when the dispatcher runs without refinement (the
	// rest of the snapshot is zero).
	Enabled bool
	// Generation counts promotions so far (the table-provenance refresh
	// generation a caller persisting the table should record).
	Generation int
	// Buckets mirrors the dispatch entries, refreshed by promotions.
	Buckets []OnlineBucketStats
}

// OnlineBucketStats is one bucket's view of the refinement loop.
type OnlineBucketStats struct {
	// Entry is the bucket's current (possibly promoted) entry.
	Entry DispatchEntry
	// Incumbent labels the entry; Challenger labels the candidate
	// currently being trialed ("" when the bucket has none to trial).
	Incumbent, Challenger string
	// Calls, Trials and Promotions count this bucket's dispatches,
	// challenger runs, and adopted challengers.
	Calls, Trials, Promotions int
}

// ring is a fixed-capacity ring of recent timing observations.
type ring struct {
	buf     []float64
	n, next int
}

func newRing(k int) ring { return ring{buf: make([]float64, k)} }

func (r *ring) add(v float64) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *ring) full() bool { return r.n == len(r.buf) }

func (r *ring) mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range r.buf[:r.n] {
		s += v
	}
	return s / float64(r.n)
}

func (r *ring) reset() { r.n, r.next = 0, 0 }

// obucket is one bucket's refinement state.
type obucket struct {
	calls, trials, promotions int
	// rot rotates the challenger pool across failed trials.
	rot int
	// inc and ch hold the recent observations of the incumbent and the
	// current challenger; chLabel pins who ch's observations belong to
	// (a promotion in an adjacent bucket can change the pool mid-window,
	// which must discard the stale window, identically on every rank).
	inc, ch ring
	chLabel string
}

// online is the refinement loop of a dispatcher in refinement mode: it
// picks who serves each call and decides promotions. The dispatcher owns
// the instances, cached per (bucket, label), so a demoted incumbent
// re-trials without reconstruction.
type online struct {
	c   comm.Comm
	cfg OnlineConfig
	op  Op
	// entries is this instance's private copy of the dispatch entries —
	// the refreshed table. The spec the dispatcher was built from is
	// shared (all ranks of an in-process run hold the same *Dispatch)
	// and is never mutated.
	entries []DispatchEntry
	gen     int
	b       []obucket
}

func newOnline(c comm.Comm, cfg OnlineConfig, op Op, spec *Dispatch) (*online, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	o := &online{
		c: c, cfg: cfg, op: op.Norm(),
		entries: append([]DispatchEntry(nil), spec.Entries...),
		b:       make([]obucket, len(spec.Entries)),
	}
	for i := range o.b {
		o.b[i].inc = newRing(cfg.Window)
		o.b[i].ch = newRing(cfg.Window)
	}
	return o, nil
}

// challengers returns bucket i's candidate pool: the distinct entries of
// the adjacent buckets. Derived from the (identical) entries on every
// rank, so the pool — and therefore every trial — is SPMD-consistent.
func (o *online) challengers(i int) []DispatchEntry {
	var out []DispatchEntry
	seen := map[string]bool{o.entries[i].label(): true}
	for _, j := range []int{i - 1, i + 1} {
		if j >= 0 && j < len(o.entries) && !seen[o.entries[j].label()] {
			seen[o.entries[j].label()] = true
			out = append(out, o.entries[j])
		}
	}
	return out
}

// pick chooses the entry serving this call in bucket i: the incumbent,
// or — once the incumbent window is warm, on every TrialEvery-th call —
// the current challenger.
func (o *online) pick(i int) (DispatchEntry, bool) {
	b := &o.b[i]
	b.calls++
	inc := o.entries[i]
	if !b.inc.full() {
		return inc, false // warm the incumbent baseline first
	}
	pool := o.challengers(i)
	if len(pool) == 0 || b.calls%o.cfg.TrialEvery != 0 {
		return inc, false
	}
	b.trials++
	return pool[b.rot%len(pool)], true
}

// record adds one observation and, when both windows are full at a trial
// call, runs the collective promotion decision.
func (o *online) record(i int, trial bool, e DispatchEntry, secs float64) error {
	b := &o.b[i]
	if !trial {
		b.inc.add(secs)
		return nil
	}
	if label := e.label(); b.chLabel != label {
		b.ch.reset() // pool rotated or changed under an adjacent promotion
		b.chLabel = label
	}
	b.ch.add(secs)
	if !b.ch.full() || !b.inc.full() {
		return nil
	}
	// Both windows full at a deterministic call: every rank decides now.
	// Agree on worst-rank means and compare once, identically,
	// everywhere. Non-negative IEEE floats order identically to their bit
	// patterns, so the max-allreduce runs on bits.
	means := []uint64{math.Float64bits(b.inc.mean()), math.Float64bits(b.ch.mean())}
	if err := agreeMax(o.c, means, tagOnlineAgree, "online promotion agreement"); err != nil {
		return err
	}
	im, cm := math.Float64frombits(means[0]), math.Float64frombits(means[1])
	if cm < im*(1-o.cfg.MinImprove) {
		old := o.entries[i]
		o.entries[i] = DispatchEntry{MaxBlock: old.MaxBlock, Name: e.Name, Algo: e.Algo, Opts: e.Opts}
		o.gen++
		b.promotions++
		b.inc.reset()
		b.ch.reset()
		b.chLabel = ""
		b.rot = 0
		if o.cfg.OnPromote != nil && o.c.Rank() == 0 {
			o.cfg.OnPromote(PromoteEvent{
				Op: o.op, Bucket: i, Old: old, New: o.entries[i],
				OldMean: im, NewMean: cm, Generation: o.gen,
			})
		}
	} else {
		b.ch.reset()
		b.chLabel = ""
		b.rot++
	}
	return nil
}

// tagOnlineAgree is the tag base of the promotion-decision allreduce (one
// tag per dissemination round). Its rounds are not clear of every other
// control tag on the communicator. Above 1024 ranks, round 10 of the
// alltoallv bucket agreement (tagVDispatch+10) is also 331; nothing
// mismatches, because that round receives from rank r-1024 and round 0
// here from rank r-1, which differ at every such size.
const tagOnlineAgree = 331

// stats snapshots the loop for OnlineStats.
func (o *online) stats() OnlineStats {
	s := OnlineStats{Enabled: true, Generation: o.gen}
	for i := range o.b {
		b := &o.b[i]
		ch := ""
		if pool := o.challengers(i); len(pool) > 0 {
			ch = pool[b.rot%len(pool)].label()
		}
		s.Buckets = append(s.Buckets, OnlineBucketStats{
			Entry:     o.entries[i],
			Incumbent: o.entries[i].label(), Challenger: ch,
			Calls: b.calls, Trials: b.trials, Promotions: b.promotions,
		})
	}
	return s
}
