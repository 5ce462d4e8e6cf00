package schedreg

import (
	"errors"

	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

// Fetcher resolves a (generator, world, rank) to a rank program with
// the three-valued contract of core.SetSchedFetcher:
//
//	(rp, nil)   — hit: a program compiled in this process and matched
//	              against a verified world proof; the caller runs it
//	              without re-verifying the slice or the world;
//	(nil, err)  — definitive rejection: the generator cannot serve the
//	              world, the caller negative-caches the verdict;
//	(nil, nil)  — unavailable: fall through to local compilation.
//
// It is structurally assignable to core.SchedFetcher; the commands do
// core.SetSchedFetcher(f) without this package importing core.
type Fetcher = func(gen string, p int, m *topo.Mapping, rank int) (*sched.RankProgram, error)

// FetcherFor returns the fetcher over the registry directory a
// command's -schedreg flag names, or nil when the flag is unset.
func FetcherFor(root string) (Fetcher, error) {
	if root == "" {
		return nil, nil
	}
	reg, err := Open(root)
	if err != nil {
		return nil, err
	}
	return RegistryFetcher(reg), nil
}

// RegistryFetcher resolves rank programs straight from a disk registry
// opened in-process. Misses prove the world into the registry, so
// concurrent jobs sharing the directory still prove each world once.
// I/O failures are reported as unavailable (nil, nil): the caller's
// local compile keeps the job running and the registry is retried on
// the next world.
func RegistryFetcher(r *Registry) Fetcher {
	return func(gen string, p int, m *topo.Mapping, rank int) (*sched.RankProgram, error) {
		rp, err := r.GetOrCompile(KeyFor(gen, p, m, rank))
		switch {
		case err == nil:
			return rp, nil
		case errors.Is(err, ErrRejected):
			return nil, err
		default:
			return nil, nil
		}
	}
}
