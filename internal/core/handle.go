package core

import (
	"errors"
	"fmt"
	"sync"

	"alltoallx/internal/comm"
)

// This file is the request layer of the persistent-operation API: every
// operation (Alltoaller and Alltoallver) exposes Start, which launches the
// exchange off the caller's critical path and returns a Handle. The
// blocking methods are Start+Wait shims, so the two forms are always
// equivalent.
//
// The substrate decides what "off the critical path" means through the
// optional comm.AsyncStarter capability: the live runtime spawns a driver
// goroutine per started exchange (real overlap with the caller's Go
// code), while the simulator executes eagerly under virtual time and lets
// comm.Compute hide behind the exchange's waiting time (modeled overlap).
// A communicator without the capability degrades to synchronous execution
// inside Start.

// Handle is an in-flight started collective exchange — the MPI-4 request
// of a persistent operation. Like the operation that issued it, a handle
// is driven by one goroutine (the rank that started it) and is not safe
// for concurrent use.
type Handle interface {
	// Wait blocks until the exchange completes and returns its error.
	// Waiting an already-completed handle is a no-op returning the same
	// error again (MPI's inactive-request semantics).
	Wait() error
	// Test polls for completion without blocking. Once it has returned
	// done=true the handle is complete (err carries the exchange error,
	// and further Test/Wait calls keep returning it); while done is
	// false, err is always nil.
	Test() (done bool, err error)
}

// WaitAll waits for every handle, ignoring nil entries (MPI_REQUEST_NULL
// style), and returns the joined errors of the failures.
func WaitAll(hs []Handle) error {
	var errs []error
	for _, h := range hs {
		if h == nil {
			continue
		}
		if err := h.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ErrPending is returned (wrapped) by Start when the operation's previous
// handle has not been completed by Wait or Test: persistent operations
// allow at most one outstanding exchange, mirroring MPI persistent
// requests (and protecting the staging buffers an exchange reuses).
var ErrPending = errors.New("operation has an outstanding handle")

// opState is the nonblocking bookkeeping embedded in every persistent
// operation. Its Start enforces the one-outstanding-exchange rule and
// dispatches the body to the communicator's async capability.
//
// The pending slot is mutex-guarded: an operation is documented as driven
// by one goroutine, but the one-outstanding rule is exactly the invariant
// that catches a second goroutine sneaking in, so the check itself must
// be safe under that misuse. An unsynchronized check-then-set let two
// concurrent Starts both observe no pending handle and both launch — two
// exchange bodies racing over the operation's lazy state (the tuned
// dispatcher's per-bucket instances, staging buffers) and, for collective
// construction, a rank running a collective twice while its peers run it
// once. With the lock, exactly one Start wins and the rest fail with
// ErrPending.
type opState struct {
	mu      sync.Mutex
	pending *opHandle // guarded by mu
}

// Start launches body off the caller's critical path on c's substrate and
// returns its handle. It fails if the operation's previous handle is
// still outstanding.
func (s *opState) Start(c comm.Comm, body func() error) (Handle, error) {
	// Reserve the slot before launching the body: the reservation is what
	// serializes concurrent Starts, so it must happen under the lock and
	// strictly before any part of the exchange runs.
	h := &opHandle{owner: s}
	s.mu.Lock()
	if s.pending != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: %w (complete it with Wait or Test before starting another exchange)", ErrPending)
	}
	s.pending = h
	s.mu.Unlock()
	if st, ok := c.(comm.AsyncStarter); ok {
		h.a = st.StartAsync(body)
	} else {
		h.a = completedAsync{err: body()}
	}
	return h, nil
}

// opHandle implements Handle over a substrate token, caching the result
// so completion is observed exactly once and the owner is released
// exactly once.
type opHandle struct {
	owner *opState
	a     comm.Async
	done  bool
	err   error
}

func (h *opHandle) finish(err error) {
	h.done = true
	h.err = err
	h.owner.mu.Lock()
	if h.owner.pending == h {
		h.owner.pending = nil
	}
	h.owner.mu.Unlock()
}

// Wait blocks until the exchange completes.
func (h *opHandle) Wait() error {
	if h.done {
		return h.err
	}
	h.finish(h.a.Join())
	return h.err
}

// Test polls for completion without blocking.
func (h *opHandle) Test() (bool, error) {
	if h.done {
		return true, h.err
	}
	done, err := h.a.TryJoin()
	if !done {
		return false, nil
	}
	h.finish(err)
	return true, h.err
}

// completedAsync is the fallback token for communicators without the
// comm.AsyncStarter capability: the body already ran synchronously.
type completedAsync struct{ err error }

func (a completedAsync) Join() error            { return a.err }
func (a completedAsync) TryJoin() (bool, error) { return true, a.err }
