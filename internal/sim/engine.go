// Package sim is a deterministic discrete-event simulator used to model the
// paper's clusters (Dane, Amber, Tuolomne) at full scale — up to 32 nodes x
// 112 ranks — on a single development machine. Each simulated rank is an
// iter.Pull coroutine ("process") with a virtual clock; processes run one
// at a time under a central event loop, so all shared simulator state is
// mutated race-free and every run is reproducible given a seed.
//
// Causal ordering invariant: before touching any shared resource (NIC
// ports, memory buses, mailboxes), a process synchronizes with the global
// virtual clock (Proc.Sync), guaranteeing resource reservations happen in
// nondecreasing virtual time. This is what makes the FIFO resource model in
// network.go a valid conservative simulation.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"sort"
	"strings"
)

// event is a scheduled callback. seq breaks time ties deterministically in
// scheduling order.
type event struct {
	t   float64
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap ordered by (t, seq). It is hand-rolled
// rather than container/heap to avoid interface dispatch on the simulator's
// hottest path.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release fn for GC
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && less((*h)[l], (*h)[small]) {
			small = l
		}
		if r < n && less((*h)[r], (*h)[small]) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Engine owns the event queue and the set of simulated processes.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	procs  []*Proc
	alive  int
	failed error
	nEvent uint64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the global virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// EventsProcessed returns the number of events executed so far (a cheap
// proxy for simulation work, used in tests and stats).
func (e *Engine) EventsProcessed() uint64 { return e.nEvent }

// At schedules fn at virtual time t (clamped to now: the past cannot be
// scheduled).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, fn: fn})
}

// errStopped marks a process unwound because the engine shut down while it
// was parked.
var errStopped = errors.New("sim: process stopped while parked")

// Proc is a simulated sequential process with a private virtual clock that
// only moves forward. Exactly one Proc executes at any instant: processes
// are coroutines (iter.Pull) resumed one at a time by the event loop, so
// handoffs cost a coroutine switch, not a goroutine wakeup — the
// difference between minutes and hours when simulating tens of millions of
// messages.
type Proc struct {
	// ID is the process index (the world rank, for rank processes).
	ID int

	e          *Engine
	now        float64
	busy       float64 // CPU-busy virtual seconds (Advance charges only)
	overlap    []*simToken
	next       func() (struct{}, bool)
	stop       func()
	yield      func(struct{}) bool
	done       bool
	err        error
	waitReason string

	// The wake record: at most one wake is pending per process, an event
	// on wakeFn (p.wake, bound once) that resumes it at wakeT.
	wakeFn      func()
	wakeT       float64
	wakePending bool
	// w is the WaitAll bookkeeping, reused across parks for the same
	// reason: a parked process waits on one set of requests at a time.
	w waiter
	// reqs are the requests of the blocking calls (Send, Recv, Sendrecv),
	// reset at the start of each: such a call waits for its requests
	// before it returns, and nothing keeps a pointer to one past that
	// (a rendezvous flight drops its sender's once it completes it), so
	// the next call may reuse them. waitList is SimComm.WaitAll's request
	// list, reused the same way.
	reqs     [2]simReq
	waitList []*simReq
}

// Spawn registers a process whose body starts at virtual time 0. Must be
// called before Run.
func (e *Engine) Spawn(id int, body func(p *Proc) error) *Proc {
	p := &Proc{ID: id, e: e}
	p.wakeFn = p.wake
	e.procs = append(e.procs, p)
	e.alive++
	seq := func(yield func(struct{}) bool) {
		p.yield = yield
		func() {
			defer func() {
				if r := recover(); r != nil && !errors.Is(asError(r), errStopped) {
					p.err = fmt.Errorf("sim: proc %d panicked: %v", p.ID, r)
				}
			}()
			p.err = body(p)
		}()
		p.done = true
		e.alive--
		if p.err != nil && e.failed == nil {
			e.failed = fmt.Errorf("sim: proc %d failed at t=%.9fs: %w", p.ID, e.now, p.err)
		}
	}
	p.next, p.stop = iter.Pull(iter.Seq[struct{}](seq))
	e.WakeAt(p, 0)
	return p
}

func asError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("%v", r)
}

// transfer hands control to p until it parks or finishes.
func (e *Engine) transfer(p *Proc) {
	if p.done {
		return
	}
	p.next()
}

// Run executes events until none remain or a process fails. It returns the
// first process error, or a deadlock diagnosis if processes remain parked
// with an empty event queue. Parked processes are unwound on return so
// their coroutines release resources.
func (e *Engine) Run() error {
	defer func() {
		for _, p := range e.procs {
			if !p.done {
				p.stop()
			}
		}
	}()
	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.t
		e.nEvent++
		ev.fn()
		if e.failed != nil {
			return e.failed
		}
	}
	if e.alive > 0 {
		return e.deadlockError()
	}
	var errs []error
	for _, p := range e.procs {
		if p.err != nil {
			errs = append(errs, fmt.Errorf("proc %d: %w", p.ID, p.err))
		}
	}
	return errors.Join(errs...)
}

func (e *Engine) deadlockError() error {
	var stuck []string
	for _, p := range e.procs {
		if !p.done {
			stuck = append(stuck, fmt.Sprintf("proc %d (%s, t=%.9f)", p.ID, p.waitReason, p.now))
		}
	}
	sort.Strings(stuck)
	const show = 8
	msg := stuck
	if len(msg) > show {
		msg = append(append([]string{}, msg[:show]...), fmt.Sprintf("... and %d more", len(stuck)-show))
	}
	return fmt.Errorf("sim: deadlock at t=%.9fs: %d processes parked: %s",
		e.now, len(stuck), strings.Join(msg, "; "))
}

// Fail aborts the simulation with err at the next loop iteration.
func (e *Engine) Fail(err error) { e.failed = err }

// Now returns the process's local virtual time in seconds.
func (p *Proc) Now() float64 { return p.now }

// Advance moves the local clock forward by dt seconds (local compute or
// overhead; touches no shared state, so no synchronization is needed).
// Advanced time is CPU-busy time: it accumulates in Busy, distinguishing
// it from the waiting time a parked process's clock gains through WakeAt.
// The busy/waiting split is what the overlap model charges against — only
// waiting can hide behind application compute.
func (p *Proc) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("sim: Advance(%g): negative duration", dt))
	}
	p.now += dt
	p.busy += dt
}

// Busy returns the cumulative CPU-busy virtual seconds charged to this
// process via Advance (overheads, copies, compute). Elapsed minus busy
// over an interval is the time the process spent parked — waiting on
// message completions, barriers, or global-time synchronization.
func (p *Proc) Busy() float64 { return p.busy }

// park suspends the process until some event resumes it via transfer.
func (p *Proc) park(reason string) {
	p.waitReason = reason
	if !p.yield(struct{}{}) {
		// The engine called stop() during shutdown: unwind this process.
		panic(errStopped)
	}
	p.waitReason = ""
}

// WakeAt schedules p to resume at virtual time t, advancing its clock to at
// least t. The caller must ensure p is (or will be) parked, and a process
// has at most one pending wake: each process owns a single wake record.
// A second WakeAt before the first has fired would resume p from its next
// park instead of this one, so it fails the run, naming the process.
func (e *Engine) WakeAt(p *Proc, t float64) {
	if p.wakePending {
		e.Fail(fmt.Errorf("sim: proc %d woken for t=%.9fs while its wake for t=%.9fs is pending", p.ID, t, p.wakeT))
		return
	}
	p.wakePending = true
	p.wakeT = t
	e.At(t, p.wakeFn)
}

// wake is the event WakeAt schedules: it advances the clock to the wake
// time and resumes the process.
func (p *Proc) wake() {
	p.wakePending = false
	if p.now < p.wakeT {
		p.now = p.wakeT
	}
	p.e.transfer(p)
}

// Sync parks until global virtual time catches up with the local clock, so
// that subsequent shared-state operations occur in global time order.
//
// Sync is the simulator's causal-ordering invariant: every process must
// call it before touching any shared resource (NIC ports, memory buses,
// mailboxes), which guarantees that resource reservations happen in
// nondecreasing virtual time across the whole simulation. That monotone
// order is what makes the FIFO resource model in network.go a valid
// conservative discrete-event simulation — a reservation can never be
// invalidated by a "late" event from a process whose clock was behind.
// Omitting Sync before a reservation is the one way to corrupt a
// simulation without a data race, so every shared-state path in
// network.go starts with it.
//
// The fast path — no pending event earlier than the local clock — costs
// nothing; any process that would be woken later can only act at or after
// its wake time, so no earlier reservation can appear.
func (p *Proc) Sync() {
	if len(p.e.events) == 0 || p.e.events[0].t >= p.now {
		return
	}
	p.e.WakeAt(p, p.now)
	p.park("sync")
}

// SleepUntil parks until virtual time t (no-op if t is in the local past).
func (p *Proc) SleepUntil(t float64) {
	if t <= p.now {
		return
	}
	p.e.WakeAt(p, t)
	p.park("sleep")
}

// Park suspends the process with a diagnostic reason until another
// process's event wakes it via Engine.WakeAt.
func (p *Proc) Park(reason string) { p.park(reason) }
