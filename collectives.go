package alltoallx

import (
	"alltoallx/internal/collx"
	"alltoallx/internal/core"
)

// Alltoallver is a persistent variable-sized all-to-all operation — the
// MPI_Alltoallv counterpart of Alltoaller, with the same lifecycle:
// construct once (collectively) with NewV, reuse for any number of
// exchanges within the maxTotal fixed at construction.
type Alltoallver = core.Alltoallver

// NewV constructs the named persistent alltoallv on c (collective call).
// maxTotal — the largest send or receive total of ANY rank — must be
// passed identically by every rank. Algorithm names: pairwise,
// nonblocking, node-aware, locality-aware, tuned.
func NewV(name string, c Comm, maxTotal int, o Options) (Alltoallver, error) {
	return core.NewV(name, c, maxTotal, o)
}

// AlgorithmsV returns all registered alltoallv algorithm names.
func AlgorithmsV() []string { return core.NamesV() }

// DisplsFromCounts builds contiguous displacements for per-peer byte
// counts and returns the total buffer length — the common packing helper
// for Alltoallv callers.
func DisplsFromCounts(counts []int) (displs []int, total int) {
	return core.DisplsFromCounts(counts)
}

// Allgatherer is a persistent allgather operation (registry names: ring,
// bruck, node-aware).
type Allgatherer = collx.Allgatherer

// NewAllgather constructs the named persistent allgather on c (collective
// call; the node-aware variant splits leader communicators once, during
// construction).
func NewAllgather(name string, c Comm, o Options) (Allgatherer, error) {
	return collx.NewAllgather(name, c, o)
}

// AllgatherAlgorithms returns the registered allgather algorithm names.
func AllgatherAlgorithms() []string { return collx.AllgatherNames() }

// NodeAwareCollectives applies the paper's aggregation strategy (its
// Section 5 future work) to allgather and broadcast: leaders perform the
// inter-node part, everything else stays on the node. Library users
// should prefer the registry constructor (NewAllgather, name
// "node-aware"); this object remains the home of the node-aware
// broadcast.
type NodeAwareCollectives = collx.NodeAware

// NewNodeAwareCollectives builds the node-level communicators once
// (collective over the world communicator c, which must carry a mapping).
func NewNodeAwareCollectives(c Comm) (*NodeAwareCollectives, error) {
	return collx.NewNodeAware(c)
}
