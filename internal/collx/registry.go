package collx

import (
	"fmt"
	"sort"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/trace"
)

// This file puts the allgather on the same persistent-operation pattern
// as the all-to-all family (core.Alltoaller / core.Alltoallver): a
// registry of named algorithms, a collective constructor that performs
// all communicator splitting during setup, core.Options for
// configuration, and Phases() for per-call timing. The free functions in
// collx.go remain as the underlying exchange implementations.
//
// Registered allgather algorithms: ring | bruck | node-aware.
//
// The node-aware variant constructs the leader communicators once, in the
// constructor, so the hot path never splits (the persistent-object
// discipline the paper applies to its all-to-all measurements).

// Allgatherer is a persistent allgather bound to one rank: every call
// gathers each rank's block to all ranks. Like every persistent
// operation, it supports nonblocking exchanges: Start returns a
// core.Handle, the blocking method is exactly Start followed by Wait, and
// at most one exchange may be outstanding.
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

// allgatherer is one persistent allgather: the exchange it runs, the
// communicator, the phase recorder and the nonblocking-handle state.
type allgatherer struct {
	name string
	c    comm.Comm
	run  exchange
	rec  *trace.Recorder
	st   core.OpState
}

// exchange is one allgather call on a bound communicator.
type exchange func(send, recv comm.Buffer, block int) error

func (a *allgatherer) Name() string { return a.name }

func (a *allgatherer) Phases() map[trace.Phase]float64 { return a.rec.Snapshot() }

// Start launches the exchange off the critical path under the
// total-phase timer — the collx counterpart of the core operations'
// Start bodies.
func (a *allgatherer) Start(send, recv comm.Buffer, block int) (core.Handle, error) {
	return a.st.Start(a.c, func() error {
		a.rec.Reset()
		timer := a.rec.Time(trace.PhaseTotal)
		err := a.run(send, recv, block)
		timer.Stop()
		return err
	})
}

// Allgather is the blocking shim over Start.
func (a *allgatherer) Allgather(send, recv comm.Buffer, block int) error {
	h, err := a.Start(send, recv, block)
	if err != nil {
		return err
	}
	return h.Wait()
}

// agRegistry binds each named algorithm to c; the node-aware variant
// performs the node-level splits here, once.
var agRegistry = map[string]func(c comm.Comm) (exchange, error){
	"ring": func(c comm.Comm) (exchange, error) {
		return func(send, recv comm.Buffer, block int) error {
			return AllgatherRing(c, send, recv, block)
		}, nil
	},
	"bruck": func(c comm.Comm) (exchange, error) {
		return func(send, recv comm.Buffer, block int) error {
			return AllgatherBruck(c, send, recv, block)
		}, nil
	},
	"node-aware": func(c comm.Comm) (exchange, error) {
		na, err := NewNodeAware(c)
		if err != nil {
			return nil, err
		}
		return na.Allgather, nil
	},
}

// NewAllgather constructs the named persistent allgather on c (collective
// call; the node-aware variant splits leader communicators).
func NewAllgather(name string, c comm.Comm, _ core.Options) (Allgatherer, error) {
	f, ok := agRegistry[name]
	if !ok {
		return nil, fmt.Errorf("collx: unknown allgather %q (have %v)", name, AllgatherNames())
	}
	if c == nil {
		return nil, fmt.Errorf("collx: nil communicator")
	}
	run, err := f(c)
	if err != nil {
		return nil, err
	}
	return &allgatherer{name: name, c: c, run: run, rec: trace.NewRecorder(c.Now)}, nil
}

// AllgatherNames returns the registered allgather algorithms, sorted.
func AllgatherNames() []string {
	names := make([]string, 0, len(agRegistry))
	for n := range agRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
