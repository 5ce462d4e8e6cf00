package collx

import (
	"fmt"
	"sort"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/trace"
)

// This file migrates the package onto the same persistent-operation
// pattern as the all-to-all family (core.Alltoaller / core.Alltoallver):
// a registry of named algorithms per collective, a collective constructor
// that performs all communicator splitting during setup, core.Options for
// configuration, and Phases() for per-call timing. The free functions in
// collx.go remain as the underlying exchange implementations.
//
// Registered algorithms:
//
//	allgather:      ring | bruck | node-aware
//	allreduce:      recursive-doubling | node-aware
//	reduce-scatter: pairwise | node-aware
//
// The node-aware variants construct the leader communicators once, in the
// constructor, so the hot path never splits (the persistent-object
// discipline the paper applies to its all-to-all measurements).

// Allgatherer is a persistent allgather bound to one rank: every call
// gathers each rank's block to all ranks, up to the maxBlock fixed at
// construction. Like every persistent operation, it supports nonblocking
// exchanges: Start returns a core.Handle, the blocking method is exactly
// Start followed by Wait, and at most one exchange may be outstanding.
type Allgatherer interface {
	// Name returns the algorithm's registry name.
	Name() string
	// Allgather gathers every rank's block (send, block bytes) into recv
	// (Size()*block bytes, world rank order).
	Allgather(send, recv comm.Buffer, block int) error
	// Start launches the same exchange off the caller's critical path.
	Start(send, recv comm.Buffer, block int) (core.Handle, error)
	// Phases returns this rank's per-phase timings for the last
	// completed exchange, as the caller's own copy. It must not be
	// called while an exchange is outstanding.
	Phases() map[trace.Phase]float64
}

// Allreducer is a persistent allreduce bound to one rank.
type Allreducer interface {
	Name() string
	// Allreduce reduces buf element-wise across all ranks with op,
	// leaving the full result everywhere.
	Allreduce(buf comm.Buffer, op Op) error
	// Start launches the same reduction off the caller's critical path.
	Start(buf comm.Buffer, op Op) (core.Handle, error)
	Phases() map[trace.Phase]float64
}

// ReduceScatterer is a persistent reduce-scatter bound to one rank.
type ReduceScatterer interface {
	Name() string
	// ReduceScatter leaves on each rank the element-wise reduction of
	// every rank's block for it.
	ReduceScatter(send, recv comm.Buffer, block int, op Op) error
	// Start launches the same exchange off the caller's critical path.
	Start(send, recv comm.Buffer, block int, op Op) (core.Handle, error)
	Phases() map[trace.Phase]float64
}

// collOp carries the shared persistent state of one collx operation: the
// communicator, an optional NodeAware split set, the phase recorder, and
// the nonblocking-handle state.
type collOp struct {
	name string
	c    comm.Comm
	na   *NodeAware // nil for flat algorithms
	rec  *trace.Recorder
	st   core.OpState
}

func (o *collOp) Name() string { return o.name }

func (o *collOp) Phases() map[trace.Phase]float64 { return o.rec.Snapshot() }

// startTimed launches fn off the critical path under the total-phase
// timer — the collx counterpart of the core operations' Start bodies.
func (o *collOp) startTimed(fn func() error) (core.Handle, error) {
	return o.st.Start(o.c, func() error {
		o.rec.Reset()
		timer := o.rec.Time(trace.PhaseTotal)
		err := fn()
		timer.Stop()
		return err
	})
}

// timed runs fn to completion under the total-phase timer (the blocking
// shim over startTimed).
func (o *collOp) timed(fn func() error) error {
	h, err := o.startTimed(fn)
	if err != nil {
		return err
	}
	return h.Wait()
}

// newCollOp builds the shared state; nodeAware selects whether the
// constructor performs the node-level splits.
func newCollOp(name string, c comm.Comm, nodeAware bool) (*collOp, error) {
	op := &collOp{name: name, c: c, rec: trace.NewRecorder(c.Now)}
	if nodeAware {
		na, err := NewNodeAware(c)
		if err != nil {
			return nil, err
		}
		op.na = na
	}
	return op, nil
}

type allgatherer struct {
	*collOp
	run func(send, recv comm.Buffer, block int) error
}

func (a *allgatherer) Allgather(send, recv comm.Buffer, block int) error {
	return a.timed(func() error { return a.run(send, recv, block) })
}

func (a *allgatherer) Start(send, recv comm.Buffer, block int) (core.Handle, error) {
	return a.startTimed(func() error { return a.run(send, recv, block) })
}

type allreducer struct {
	*collOp
	run func(buf comm.Buffer, op Op) error
}

func (a *allreducer) Allreduce(buf comm.Buffer, op Op) error {
	return a.timed(func() error { return a.run(buf, op) })
}

func (a *allreducer) Start(buf comm.Buffer, op Op) (core.Handle, error) {
	return a.startTimed(func() error { return a.run(buf, op) })
}

type reduceScatterer struct {
	*collOp
	run func(send, recv comm.Buffer, block int, op Op) error
}

func (r *reduceScatterer) ReduceScatter(send, recv comm.Buffer, block int, op Op) error {
	return r.timed(func() error { return r.run(send, recv, block, op) })
}

func (r *reduceScatterer) Start(send, recv comm.Buffer, block int, op Op) (core.Handle, error) {
	return r.startTimed(func() error { return r.run(send, recv, block, op) })
}

var agRegistry = map[string]func(c comm.Comm, o core.Options) (Allgatherer, error){
	"ring": func(c comm.Comm, _ core.Options) (Allgatherer, error) {
		op, err := newCollOp("ring", c, false)
		if err != nil {
			return nil, err
		}
		return &allgatherer{collOp: op, run: func(send, recv comm.Buffer, block int) error {
			return AllgatherRing(c, send, recv, block)
		}}, nil
	},
	"bruck": func(c comm.Comm, _ core.Options) (Allgatherer, error) {
		op, err := newCollOp("bruck", c, false)
		if err != nil {
			return nil, err
		}
		return &allgatherer{collOp: op, run: func(send, recv comm.Buffer, block int) error {
			return AllgatherBruck(c, send, recv, block)
		}}, nil
	},
	"node-aware": func(c comm.Comm, _ core.Options) (Allgatherer, error) {
		op, err := newCollOp("node-aware", c, true)
		if err != nil {
			return nil, err
		}
		return &allgatherer{collOp: op, run: op.na.Allgather}, nil
	},
}

var arRegistry = map[string]func(c comm.Comm, o core.Options) (Allreducer, error){
	"recursive-doubling": func(c comm.Comm, _ core.Options) (Allreducer, error) {
		op, err := newCollOp("recursive-doubling", c, false)
		if err != nil {
			return nil, err
		}
		return &allreducer{collOp: op, run: func(buf comm.Buffer, rop Op) error {
			return AllreduceRecursiveDoubling(c, buf, rop)
		}}, nil
	},
	"node-aware": func(c comm.Comm, _ core.Options) (Allreducer, error) {
		op, err := newCollOp("node-aware", c, true)
		if err != nil {
			return nil, err
		}
		return &allreducer{collOp: op, run: op.na.Allreduce}, nil
	},
}

var rsRegistry = map[string]func(c comm.Comm, o core.Options) (ReduceScatterer, error){
	"pairwise": func(c comm.Comm, _ core.Options) (ReduceScatterer, error) {
		op, err := newCollOp("pairwise", c, false)
		if err != nil {
			return nil, err
		}
		return &reduceScatterer{collOp: op, run: func(send, recv comm.Buffer, block int, rop Op) error {
			return ReduceScatterPairwise(c, send, recv, block, rop)
		}}, nil
	},
	"node-aware": func(c comm.Comm, _ core.Options) (ReduceScatterer, error) {
		op, err := newCollOp("node-aware", c, true)
		if err != nil {
			return nil, err
		}
		return &reduceScatterer{collOp: op, run: op.na.ReduceScatter}, nil
	},
}

// NewAllgather constructs the named persistent allgather on c (collective
// call; the node-aware variant splits leader communicators).
func NewAllgather(name string, c comm.Comm, o core.Options) (Allgatherer, error) {
	f, ok := agRegistry[name]
	if !ok {
		return nil, fmt.Errorf("collx: unknown allgather %q (have %v)", name, AllgatherNames())
	}
	if c == nil {
		return nil, fmt.Errorf("collx: nil communicator")
	}
	return f(c, o)
}

// NewAllreduce constructs the named persistent allreduce on c (collective
// call).
func NewAllreduce(name string, c comm.Comm, o core.Options) (Allreducer, error) {
	f, ok := arRegistry[name]
	if !ok {
		return nil, fmt.Errorf("collx: unknown allreduce %q (have %v)", name, AllreduceNames())
	}
	if c == nil {
		return nil, fmt.Errorf("collx: nil communicator")
	}
	return f(c, o)
}

// NewReduceScatter constructs the named persistent reduce-scatter on c
// (collective call).
func NewReduceScatter(name string, c comm.Comm, o core.Options) (ReduceScatterer, error) {
	f, ok := rsRegistry[name]
	if !ok {
		return nil, fmt.Errorf("collx: unknown reduce-scatter %q (have %v)", name, ReduceScatterNames())
	}
	if c == nil {
		return nil, fmt.Errorf("collx: nil communicator")
	}
	return f(c, o)
}

// AllgatherNames returns the registered allgather algorithms, sorted.
func AllgatherNames() []string { return sortedKeys(agRegistry) }

// AllreduceNames returns the registered allreduce algorithms, sorted.
func AllreduceNames() []string { return sortedKeys(arRegistry) }

// ReduceScatterNames returns the registered reduce-scatter algorithms,
// sorted.
func ReduceScatterNames() []string { return sortedKeys(rsRegistry) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
