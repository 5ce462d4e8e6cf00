package alltoallx

import "alltoallx/internal/core"

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
