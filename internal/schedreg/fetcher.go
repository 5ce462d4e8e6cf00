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

// FetcherFor returns the fetcher a command's -schedreg (a registry
// directory opened in-process) and -schedd (a running a2aschedd) flags
// select, or nil when neither is set.
func FetcherFor(root, daemon string) (Fetcher, error) {
	switch {
	case root != "" && daemon != "":
		return nil, errors.New("-schedreg and -schedd are mutually exclusive")
	case root != "":
		reg, err := Open(root)
		if err != nil {
			return nil, err
		}
		return RegistryFetcher(reg), nil
	case daemon != "":
		return ClientFetcher(NewClient(daemon)), nil
	}
	return nil, nil
}

// RegistryFetcher resolves rank programs straight from a disk registry
// opened in-process (no daemon). Misses prove the world into the
// registry, so concurrent jobs sharing the directory still prove each
// world once. I/O failures are reported as unavailable (nil, nil): the
// caller's local compile keeps the job running and the registry is
// retried on the next world.
func RegistryFetcher(r *Registry) Fetcher {
	return func(gen string, p int, m *topo.Mapping, rank int) (*sched.RankProgram, error) {
		return fetched(r.GetOrCompile(KeyFor(gen, p, m, rank)))
	}
}

// ClientFetcher resolves rank programs against a running a2aschedd's
// proofs. Daemon outages, saturation and proof mismatches
// (ErrUnavailable) are reported as (nil, nil) so callers fall back to
// local compilation; only a 422 rejection — a definitive verdict about
// the (generator, world) pair — propagates as an error worth
// negative-caching.
func ClientFetcher(c *Client) Fetcher {
	return func(gen string, p int, m *topo.Mapping, rank int) (*sched.RankProgram, error) {
		return fetched(c.Fetch(gen, p, m, rank))
	}
}

// fetched maps a resolution onto the Fetcher contract.
func fetched(rp *sched.RankProgram, err error) (*sched.RankProgram, error) {
	switch {
	case err == nil:
		return rp, nil
	case errors.Is(err, ErrRejected):
		return nil, err
	default:
		return nil, nil
	}
}
