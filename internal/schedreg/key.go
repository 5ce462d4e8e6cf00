// Package schedreg is the schedule service: a disk-backed registry of
// world proofs that every process pointed at the same directory shares.
// It layers *under* the in-process schedule cache of internal/core: the
// cache bounds what one process retains, the registry makes the
// expensive part of compilation — proving a world — happen once per
// registry directory instead of once per process. Commands reach it
// through -schedreg (FetcherFor, RegistryFetcher); a2asched list and
// fetch -root inspect it.
//
// Layout under the registry root:
//
//	keys/<gen>/<world>/PROOF      {"gen","world","digests":[...]}: the world passed
//	                              verification; digests[r] is rank r's program digest
//	keys/<gen>/<world>/REJECTED   generator rejected the world (negative cache)
//
// where <world> is "p<ranks>-<nodes>x<ppn>" or "p<ranks>-flat". No
// program is stored: a rank resolves by compiling its own slice
// (sched.GenerateRank, O(slice)) and comparing the slice's Digest with
// its entry. Every write goes through the shared artifact discipline
// (synced temp file + rename), so concurrent registries over the same
// root — including different processes — never observe torn state, a
// crash never leaves a torn record, and proofs are deterministic, so
// duplicate writes are idempotent.
package schedreg

import (
	"errors"
	"fmt"
	"slices"

	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

// ErrRejected marks a definitive negative verdict: the generator
// rejected this (generator, world) pair — e.g. hypercube at a
// non-power-of-2 rank count — and will keep rejecting it. Callers
// should cache the rejection rather than retry.
var ErrRejected = errors.New("generator rejected this world")

// Key identifies one compiled rank program: the generator, the world
// shape it was compiled for, and the rank whose slice it is. Nodes and
// PPN are zero for a flat (topology-less) world; generators consume
// only the nodes x ppn grid, so the pair fingerprints everything the
// compilation depends on.
type Key struct {
	Gen   string `json:"gen"`
	Ranks int    `json:"ranks"`
	Nodes int    `json:"nodes,omitempty"`
	PPN   int    `json:"ppn,omitempty"`
	Rank  int    `json:"rank"`
}

// KeyFor builds the key of gen's program for rank in a p-rank world
// mapped by m (nil for flat).
func KeyFor(gen string, p int, m *topo.Mapping, rank int) Key {
	k := Key{Gen: gen, Ranks: p, Rank: rank}
	if m != nil {
		k.Nodes, k.PPN = m.Nodes(), m.PPN()
	}
	return k
}

// World names the (ranks, topology) shape: "p32-4x8" or "p6-flat".
// It is both the registry directory name and the world half of every
// error message.
func (k Key) World() string {
	if k.Nodes > 0 {
		return fmt.Sprintf("p%d-%dx%d", k.Ranks, k.Nodes, k.PPN)
	}
	return fmt.Sprintf("p%d-flat", k.Ranks)
}

// genWorld renders the world half of the key for error attribution:
// "torus@p32-4x8".
func (k Key) genWorld() string { return k.Gen + "@" + k.World() }

// String renders the full key for error attribution:
// "torus@p32-4x8 rank 3".
func (k Key) String() string {
	return fmt.Sprintf("%s rank %d", k.genWorld(), k.Rank)
}

// Mapping reconstructs a topology mapping carrying the key's grid. The
// node internals (sockets, NUMA) are synthetic — schedule generators
// consume only Nodes() and PPN(), so any spec wide enough to hold ppn
// ranks yields the identical schedule.
func (k Key) Mapping() (*topo.Mapping, error) {
	if k.Nodes == 0 {
		return nil, nil
	}
	m, err := topo.NewMapping(topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: k.PPN}, k.Nodes, k.PPN)
	if err != nil {
		return nil, fmt.Errorf("schedreg: %s: %w", k, err)
	}
	return m, nil
}

// validate rejects keys that could not name a real compilation before
// any disk or generator work happens, so no verdict is ever written for
// a world no generator can have. Only a known generator's name passes,
// which also keeps the directory component under keys/ path-safe.
func (k Key) validate() error {
	if !slices.Contains(sched.Generators(), k.Gen) {
		return fmt.Errorf("schedreg: unknown generator %q", k.Gen)
	}
	if k.Ranks < 2 || k.Ranks > sched.MaxRanks {
		return fmt.Errorf("schedreg: %s: world needs 2 to %d ranks", k, sched.MaxRanks)
	}
	if k.Rank < 0 || k.Rank >= k.Ranks {
		return fmt.Errorf("schedreg: %s: rank out of range 0..%d", k, k.Ranks-1)
	}
	if k.Nodes < 0 || k.PPN < 0 || (k.Nodes > 0) != (k.PPN > 0) {
		return fmt.Errorf("schedreg: %s: nodes/ppn must both be set or both be zero", k)
	}
	if k.Nodes > 0 && (k.Ranks%k.PPN != 0 || k.Ranks/k.PPN != k.Nodes) {
		return fmt.Errorf("schedreg: %s: %d nodes x %d ppn is not %d ranks", k, k.Nodes, k.PPN, k.Ranks)
	}
	return nil
}
