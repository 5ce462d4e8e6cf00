package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"alltoallx/internal/comm"
	"alltoallx/internal/trace"
)

// Op names the collective operation a dispatch spec (or autotune table)
// was tuned for. The zero value means OpAlltoall, keeping pre-op-kind
// tables loadable.
type Op string

// Tunable operation kinds.
const (
	// OpAlltoall is the fixed-size all-to-all (Alltoaller / New).
	OpAlltoall Op = "alltoall"
	// OpAlltoallv is the variable-sized all-to-all (Alltoallver / NewV).
	OpAlltoallv Op = "alltoallv"
)

// Norm maps the zero value to OpAlltoall; any other value is returned
// unchanged (Validate rejects unknown kinds).
func (o Op) Norm() Op {
	if o == "" {
		return OpAlltoall
	}
	return o
}

// DispatchEntry is one size bucket of a Dispatch spec: blocks of at most
// MaxBlock bytes run Algo constructed with Opts. Name labels the entry in
// diagnostics (it defaults to Algo); autotune carries its candidate labels
// here so "multileader/4ppl" and "multileader/8ppl" stay distinguishable.
// For OpAlltoallv specs, MaxBlock is the mean payload per peer (total
// bytes sent by a rank divided by the rank count) — the v-dispatcher
// buckets each call's total payload against MaxBlock*p.
type DispatchEntry struct {
	MaxBlock int
	Name     string
	Algo     string
	Opts     Options
}

func (e DispatchEntry) label() string {
	if e.Name != "" {
		return e.Name
	}
	return e.Algo
}

// Dispatch is the algorithm-selection spec the "tuned" meta-algorithm is
// constructed from: an ascending sequence of size buckets, each naming the
// algorithm that won that size range. Tables built offline by
// internal/autotune convert to a Dispatch for run-time use; blocks larger
// than the last bucket use the last bucket (the autotuner's large-message
// winner).
type Dispatch struct {
	// Op is the operation the spec was tuned for (zero means OpAlltoall).
	// A spec only dispatches through the matching constructor: New for
	// OpAlltoall, NewV for OpAlltoallv.
	Op      Op
	Entries []DispatchEntry
}

// Validate checks that the spec is dispatchable: a known op kind, at
// least one entry, strictly ascending positive MaxBlock boundaries, and
// every Algo registered for the spec's op. Two registered names are still
// rejected: "tuned" itself (which would recurse) and "system-mpi" (its
// vendor OverheadScale is applied by the bench harness keyed on the
// top-level algorithm name, so a dispatched system-mpi bucket would run
// without the scaling that won it the ranking — the emulation is a
// baseline to beat, not a winner to dispatch).
func (d *Dispatch) Validate() error {
	if d == nil || len(d.Entries) == 0 {
		return errors.New("core: empty dispatch spec")
	}
	op := d.Op.Norm()
	if op != OpAlltoall && op != OpAlltoallv {
		return fmt.Errorf("core: dispatch spec has unknown op %q (want %q or %q)", d.Op, OpAlltoall, OpAlltoallv)
	}
	prev := 0
	for i, e := range d.Entries {
		if e.MaxBlock <= prev {
			return fmt.Errorf("core: dispatch entry %d: MaxBlock %d not ascending (previous %d)", i, e.MaxBlock, prev)
		}
		prev = e.MaxBlock
		if e.Algo == algoTuned {
			return fmt.Errorf("core: dispatch entry %d: %q cannot dispatch to itself", i, algoTuned)
		}
		if e.Algo == "system-mpi" {
			return fmt.Errorf("core: dispatch entry %d: %q cannot be a tabled winner (its vendor overhead scaling is applied per top-level algorithm and would be lost under dispatch)", i, e.Algo)
		}
		if op == OpAlltoallv {
			if _, ok := vRegistry[e.Algo]; !ok {
				return fmt.Errorf("core: dispatch entry %d: unknown %s algorithm %q (have %v)", i, OpAlltoallv, e.Algo, NamesV())
			}
		} else if _, ok := registry[e.Algo]; !ok {
			return fmt.Errorf("core: dispatch entry %d: unknown algorithm %q (have %v)", i, e.Algo, Names())
		}
	}
	return nil
}

// Fingerprint returns a short string identifying the spec's contents, for
// use in measurement cache keys. A nil spec fingerprints as "".
func (d *Dispatch) Fingerprint() string {
	if d == nil {
		return ""
	}
	parts := make([]string, 0, len(d.Entries)+1)
	parts = append(parts, string(d.Op.Norm()))
	for _, e := range d.Entries {
		parts = append(parts, fmt.Sprintf("%d:%s:%s:%d:%d:%d:%+v",
			e.MaxBlock, e.Algo, e.Opts.Inner, e.Opts.PPL, e.Opts.PPG, e.Opts.BatchWindow, e.Opts.Sys))
	}
	return strings.Join(parts, ",")
}

const algoTuned = "tuned"

// tunedHysteresis keeps the previous bucket while the block stays within
// this fraction of the crossed boundary, so a workload alternating between
// two sizes that straddle a boundary does not rebuild or thrash between
// algorithms on every call.
const tunedHysteresis = 0.25

// dispatchBucket returns the entry index that should serve a size: the
// nominal bucket (smallest MaxBlock >= size, or the last entry), adjusted
// by hysteresis against the previously used bucket (last; -1 before any
// call). Both front ends use it: the fixed-size one with size = block
// bytes, the alltoallv one with size = mean payload per peer, possibly
// fractional — hence the float.
func dispatchBucket(entries []DispatchEntry, size float64, last int) int {
	nominal := len(entries) - 1
	for i, e := range entries {
		if size <= float64(e.MaxBlock) {
			nominal = i
			break
		}
	}
	if last < 0 {
		return nominal
	}
	// Hysteresis only damps oscillation across one boundary: a size that
	// lands two or more buckets away is no borderline case and switches
	// unconditionally.
	switch nominal {
	case last + 1:
		// Growing past the upper boundary of the last bucket: stay until
		// the size clearly exceeds it.
		bound := float64(entries[last].MaxBlock)
		if size <= bound*(1+tunedHysteresis) {
			return last
		}
	case last - 1:
		// Shrinking below the lower boundary of the last bucket: stay
		// until the size is clearly inside the smaller bucket.
		bound := float64(entries[last-1].MaxBlock)
		if size > bound*(1-tunedHysteresis) {
			return last
		}
	}
	return nominal
}

// phaser is the slice of Alltoaller/Alltoallver the dispatcher needs
// from the instances it manages.
type phaser interface {
	Phases() map[trace.Phase]float64
}

// instKey names a constructed instance by the bucket it serves and the
// label of the entry it runs. Construction is collective and costs
// virtual time, so two buckets naming the same algorithm still build one
// instance each.
type instKey struct {
	bucket int
	label  string
}

// dispatcher is the run-time algorithm selection over a Dispatch spec,
// shared by the fixed-size tuned front end (T = Alltoaller) and the
// alltoallv one (T = Alltoallver). A front end validates each call,
// reduces it to a bucket index every rank agrees on, and hands it to run.
// Instances are constructed lazily, on the first call that runs them:
// construction is collective (it splits communicators), and since every
// rank sees the same bucket sequence, all ranks construct the same
// instance on the same call.
type dispatcher[T phaser] struct {
	c     comm.Comm
	op    Op
	spec  *Dispatch
	build func(DispatchEntry) (T, error) // New or NewV for one entry
	insts map[instKey]T
	st    opState
	last  int // bucket of the previous call, -1 before any

	// picked and inst describe the entry the previous call ran; inst is
	// nil until it has been constructed.
	picked string
	inst   phaser

	// onl, when non-nil, runs the online refinement loop (Options.Online)
	// over a private copy of the entries; the shared spec stays read-only.
	onl *online
}

func newDispatcher[T phaser](c comm.Comm, op Op, o Options, build func(DispatchEntry) (T, error)) (*dispatcher[T], error) {
	if o.Table == nil {
		return nil, fmt.Errorf("core: %q requires Options.Table (a dispatch spec; see internal/autotune)", algoTuned)
	}
	if err := o.Table.Validate(); err != nil {
		return nil, err
	}
	if got := o.Table.Op.Norm(); got != op {
		if op == OpAlltoall {
			return nil, fmt.Errorf("core: dispatch spec tuned for %q cannot drive the fixed-size %q algorithm (use NewV)", got, algoTuned)
		}
		return nil, fmt.Errorf("core: dispatch spec tuned for %q cannot drive the %s %q algorithm (use New)", got, OpAlltoallv, algoTuned)
	}
	d := &dispatcher[T]{c: c, op: op, spec: o.Table, build: build, insts: make(map[instKey]T), last: -1}
	if o.Online != nil {
		onl, err := newOnline(c, *o.Online, op, o.Table)
		if err != nil {
			return nil, err
		}
		d.onl = onl
	}
	return d, nil
}

// run serves one call in bucket i: it picks the entry (in refinement mode
// the loop picks incumbent or challenger), constructs it on first use and
// runs call on it. The entry is recorded before construction, so after a
// failed construction Picked names it and Phases is empty.
func (d *dispatcher[T]) run(i int, call func(T) error) error {
	d.last = i
	e, trial := d.spec.Entries[i], false
	if d.onl != nil {
		e, trial = d.onl.pick(i)
	}
	d.picked, d.inst = e.label(), nil
	key := instKey{i, d.picked}
	inst, ok := d.insts[key]
	if !ok {
		var err error
		if inst, err = d.build(e); err != nil {
			unit := "B"
			if d.op == OpAlltoallv {
				unit = "B/peer"
			}
			return fmt.Errorf("core: tuned bucket <=%d %s (%s): %w", e.MaxBlock, unit, d.picked, err)
		}
		d.insts[key] = inst
	}
	d.inst = inst
	if d.onl == nil {
		return call(inst)
	}
	t0 := d.c.Now()
	if err := call(inst); err != nil {
		return err
	}
	return d.onl.record(i, trial, e, d.c.Now()-t0)
}

func (d *dispatcher[T]) Name() string { return algoTuned }

// Phases reports the per-phase breakdown of the algorithm the last call
// dispatched to.
func (d *dispatcher[T]) Phases() map[trace.Phase]float64 {
	if d.inst == nil {
		return nil
	}
	return d.inst.Phases()
}

// Picked returns the label of the entry the last call dispatched to (""
// before any call). In refinement mode a trial call reports the
// challenger that actually ran. Tests and diagnostics use it to observe
// dispatch decisions; it is available through a type assertion on the
// Alltoaller or Alltoallver:
//
//	p := a.(interface{ Picked() string })
func (d *dispatcher[T]) Picked() string { return d.picked }

// OnlineStats snapshots the refinement loop (zero value when the
// dispatcher was built without Options.Online), available through a type
// assertion like Picked.
func (d *dispatcher[T]) OnlineStats() OnlineStats {
	if d.onl == nil {
		return OnlineStats{}
	}
	return d.onl.stats()
}

// agreeMax max-allreduces words in place across c by dissemination: in
// round j every rank exchanges its running maxima with the ranks 2^j
// away on either side, on tag+j, in messages of 8 bytes per word. Max is
// idempotent, so the overlapping coverage yields the exact global maximum
// in ceil(log2 p) rounds for any rank count. what names the agreement in
// errors.
//
//a2alint:collective
func agreeMax(c comm.Comm, words []uint64, tag int, what string) error {
	n, r := c.Size(), c.Rank()
	out, in := comm.Alloc(8*len(words)), comm.Alloc(8*len(words))
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		for i, w := range words {
			binary.LittleEndian.PutUint64(out.Bytes()[8*i:], w)
		}
		if err := c.Sendrecv(out, (r+k)%n, tag+round, in, (r-k+n)%n, tag+round); err != nil {
			return fmt.Errorf("core: %s round %d: %w", what, round, err)
		}
		for i := range words {
			words[i] = max(words[i], binary.LittleEndian.Uint64(in.Bytes()[8*i:]))
		}
	}
	return nil
}

// tuned is the fixed-size front end of the dispatcher: it buckets each
// call on its block size, which every rank shares.
type tuned struct {
	*dispatcher[Alltoaller]
	maxBlock int
}

func newTuned(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
	d, err := newDispatcher(c, OpAlltoall, o, func(e DispatchEntry) (Alltoaller, error) {
		return New(e.Algo, c, maxBlock, e.Opts)
	})
	if err != nil {
		return nil, err
	}
	return &tuned{dispatcher: d, maxBlock: maxBlock}, nil
}

// Start dispatches and launches the winning algorithm's exchange off the
// critical path. Bucket choice, lazy construction and the bookkeeping
// all run inside the started body (on the driver goroutine in the live
// runtime), keeping Start itself nonblocking even on a first-in-bucket
// call whose collective construction communicates. Picked and Phases
// reflect a started exchange only after its handle completes.
func (t *tuned) Start(send, recv comm.Buffer, block int) (Handle, error) {
	if err := checkArgs(t.c, send, recv, block, t.maxBlock); err != nil {
		return nil, err
	}
	return t.st.Start(t.c, func() error {
		return t.run(dispatchBucket(t.spec.Entries, float64(block), t.last),
			func(a Alltoaller) error { return a.Alltoall(send, recv, block) })
	})
}

func (t *tuned) Alltoall(send, recv comm.Buffer, block int) error {
	h, err := t.Start(send, recv, block)
	if err != nil {
		return err
	}
	return h.Wait()
}

// init registers tuned separately: like system-mpi, its factory calls New
// (at dispatch time), which would otherwise form an initialization cycle
// with the registry.
func init() { registry[algoTuned] = newTuned }
