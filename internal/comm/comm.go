// Package comm defines the communication interface that every all-to-all
// algorithm in this repository is written against. Two substrates implement
// it: internal/runtime (a live in-process message-passing runtime, one
// goroutine per rank) and internal/sim (a discrete-event simulator of a
// many-core cluster). Writing each algorithm once against this interface is
// what lets the same code be correctness-tested for real and
// performance-modeled at supercomputer scale.
//
// The interface mirrors the MPI subset the paper's Algorithms 1-5 use:
// blocking and nonblocking point-to-point, Sendrecv, Waitall, Barrier, and
// communicator splitting.
package comm

import (
	"errors"
	"fmt"

	"alltoallx/internal/topo"
)

// ErrTruncate is returned by substrates for a receive buffer smaller than
// the matched message.
var ErrTruncate = errors.New("comm: receive buffer shorter than message")

// Request is an in-flight nonblocking operation. It is completed by
// Comm.Wait or Comm.WaitAll on the communicator that created it.
type Request interface {
	// Pending reports whether the request has not completed yet.
	Pending() bool
}

// Async is a substrate token for a started collective-operation body (see
// AsyncStarter): the handle layer in internal/core polls or joins it to
// implement Test and Wait. Like the operations themselves, a token is
// driven by one goroutine — the rank that started it.
type Async interface {
	// Join blocks until the body has completed and returns its error.
	// Joining a completed token returns the same error again.
	Join() error
	// TryJoin polls for completion without blocking. err is meaningful
	// only when done is true.
	TryJoin() (done bool, err error)
}

// AsyncStarter is an optional Comm capability: substrates that implement
// it decide how a started operation's body runs off the caller's critical
// path. The live runtime spawns a driver goroutine per started body; the
// simulator executes the body eagerly under virtual time and banks the
// time the rank spent *waiting* (parked on message completions, as
// opposed to busy with per-message overheads and copies) as an overlap
// budget that subsequent Compute calls on the same rank draw down — the
// classic overlap model total = max(comm, compute + overhead), realized
// event by event. Comms without the capability fall back to synchronous
// execution inside Start (the body runs to completion before Start
// returns a pre-completed token).
type AsyncStarter interface {
	StartAsync(body func() error) Async
}

// Comm is an MPI-like communicator bound to one rank (SPMD style: every
// rank of a world executes the same program against its own Comm value).
//
// Buffers may be real (backed by []byte) or virtual (length only); see
// Buffer. Substrates must support both: the live runtime requires real
// buffers, the simulator accepts either and moves payload bytes whenever
// both ends are real.
type Comm interface {
	// Rank returns this process's rank in the communicator (0..Size-1).
	Rank() int
	// Size returns the number of ranks in the communicator.
	Size() int

	// Send delivers b to rank dst with the given tag, blocking until the
	// message is safely injected (eager) or received (rendezvous).
	Send(b Buffer, dst, tag int) error
	// Recv blocks until a message from src with the given tag arrives,
	// copying it into b. The message length must not exceed b.Len().
	Recv(b Buffer, src, tag int) error
	// Isend starts a nonblocking send of b to dst.
	Isend(b Buffer, dst, tag int) (Request, error)
	// Irecv starts a nonblocking receive from src into b.
	Irecv(b Buffer, src, tag int) (Request, error)
	// Wait blocks until r completes.
	Wait(r Request) error
	// WaitAll blocks until every request completes. A nil element is
	// ignored, mirroring MPI_REQUEST_NULL.
	WaitAll(rs []Request) error
	// Sendrecv performs a blocking combined exchange, deadlock-free even
	// when all ranks call it simultaneously (as pairwise exchange does).
	Sendrecv(sb Buffer, dst, stag int, rb Buffer, src, rtag int) error

	// Barrier blocks until every rank of the communicator has entered it.
	Barrier() error

	// Split partitions the communicator: ranks passing equal color form a
	// new communicator, ordered by (key, parent rank). It is collective
	// over the parent. Substrates may treat it as setup (untimed): the
	// paper constructs sub-communicators once, outside the timed region.
	Split(color, key int) (Comm, error)

	// Memcpy copies src into dst (lengths must match). On real buffers it
	// moves bytes; in the simulator it also charges memory-copy time to
	// this rank. Single-block algorithm copies go through Memcpy so that
	// repack cost is modeled.
	Memcpy(dst, src Buffer) error

	// ChargeCopy accounts for a batch repack of blocks copies totalling
	// bytes that was performed directly with comm.CopyBlocks or
	// comm.CopyData (which move data but charge nothing). bytes and blocks
	// are the logical per-block counts of the repack, not the number of
	// copy calls that performed it. The live runtime pays the real copy
	// cost in wall time, so this is a no-op there; the simulator charges
	// bytes/copy-bandwidth plus a per-block loop cost. The paper's
	// "Repack Data" steps — thousands of tiny block moves at small message
	// sizes — are modeled through this call.
	ChargeCopy(bytes, blocks int) error

	// Now returns this rank's current time in seconds: wall-clock seconds
	// on the live runtime, virtual seconds in the simulator. Used by the
	// phase-breakdown instrumentation (Figures 13-16).
	Now() float64

	// Compute models `seconds` of application computation on this rank —
	// the hook that lets one program body both run for real and be
	// overlap-modeled. On the live runtime it is a validating no-op
	// (wall-clock compute is real Go code; nothing sleeps). In the
	// simulator it charges virtual time, minus whatever portion hides
	// behind the rank's outstanding started operations (see AsyncStarter):
	// a rank that calls Start, Compute, Wait pays
	// max(comm, compute + software overhead), not their sum.
	Compute(seconds float64) error

	// Topo returns the world rank mapping, or nil on communicators that do
	// not carry topology (sub-communicators). Algorithms query it on the
	// world communicator to plan node-aware exchanges.
	Topo() *topo.Mapping
}

// CheckPeer validates a peer rank against a communicator size.
func CheckPeer(peer, size int) error {
	if peer < 0 || peer >= size {
		return fmt.Errorf("comm: peer rank %d out of range 0..%d", peer, size-1)
	}
	return nil
}

// CheckTag validates a user tag (non-negative; substrates reserve negative
// tags for internal protocols).
func CheckTag(tag int) error {
	if tag < 0 {
		return fmt.Errorf("comm: tag %d must be non-negative", tag)
	}
	return nil
}
