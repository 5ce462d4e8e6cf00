// Package core implements the paper's contribution: the all-to-all
// algorithm family for emerging many-core systems.
//
// Baselines (Section 2): pairwise exchange (Algorithm 1), nonblocking
// (Algorithm 2), the Bruck algorithm, and a batched hybrid (Section 2.1).
//
// Node-aware family (Section 3): hierarchical and multi-leader all-to-all
// (Algorithm 3), node-aware aggregation (Algorithm 4), and the paper's two
// novel algorithms — locality-aware aggregation (Algorithm 4 with several
// groups per node, Section 3.2) and multi-leader + node-aware (Algorithm 5,
// Section 3.3). A system-MPI emulation reproduces the vendor baseline the
// paper compares against, and a "tuned" meta-algorithm (Section 5's
// dynamic-selection future work) dispatches among the family per message
// size from a Dispatch spec precomputed by internal/autotune.
//
// Every algorithm follows MPI_Alltoall semantics: with p ranks and block
// bytes per destination, send block i goes to rank i and recv block j ends
// up holding rank j's contribution. Algorithms are persistent objects: New
// performs all communicator splitting and staging-buffer setup (the paper
// also constructs sub-communicators outside its timed regions), and
// Alltoall is the measured hot path.
package core

import (
	"errors"
	"fmt"
	"sort"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/trace"
)

// errNilComm rejects a nil communicator before any constructor touches it.
var errNilComm = errors.New("core: nil communicator")

// Inner selects the algorithm used for the all-to-all exchanges *inside*
// the node-aware family (the paper benchmarks each algorithm with both
// pairwise and nonblocking inner exchanges; Bruck is also available).
type Inner string

// Inner exchange choices.
const (
	InnerPairwise    Inner = "pairwise"
	InnerNonblocking Inner = "nonblocking"
	InnerBruck       Inner = "bruck"
)

// Tag bases: one per phase so concurrent phases on one communicator can
// never cross-match.
const (
	tagAlltoall = 101
	tagGather   = 201
	tagScatter  = 301
)

// Options configures algorithm construction. The zero value is usable for
// every algorithm except "system-mpi" (which requires Sys) and "tuned"
// (which requires Table): zero fields take the documented defaults in New.
// The JSON tags are the persistence format of autotune tables; Table is
// deliberately excluded (a dispatch spec nested inside a dispatch entry
// would be meaningless — "tuned" cannot be a tabled winner).
type Options struct {
	// Inner is the exchange used for internal all-to-alls (default
	// pairwise, the paper's solid lines).
	Inner Inner `json:"inner,omitempty"`
	// PPL is processes per leader for multileader and
	// multileader-node-aware (default 4; the paper tests 4, 8, 16).
	PPL int `json:"ppl,omitempty"`
	// PPG is processes per group for locality-aware (default 4; the paper
	// tests 4, 8, 16).
	PPG int `json:"ppg,omitempty"`
	// BatchWindow is the in-flight message window of the batched
	// algorithm (default 32).
	BatchWindow int `json:"batchWindow,omitempty"`
	// Sys is the system-MPI emulation profile (required for "system-mpi").
	// It is always emitted, zero or not: "omitzero" would need Go 1.24's
	// encoder and this module supports 1.23, so a conditional tag would
	// make the on-disk format differ by toolchain.
	Sys netmodel.SysProfile `json:"sys"`
	// Table is the dispatch spec for the "tuned" meta-algorithm (required
	// for "tuned", ignored otherwise). Build one offline with
	// internal/autotune and convert via Table.Dispatch.
	Table *Dispatch `json:"-"`
	// Online enables the tuned dispatcher's run-time refinement loop:
	// live per-bucket timings feed an incumbent-vs-challenger comparison
	// that re-promotes winners as the machine drifts away from the table.
	// Nil (the default) dispatches statically. See OnlineConfig.
	Online *OnlineConfig `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Inner == "" {
		o.Inner = InnerPairwise
	}
	if o.PPL == 0 {
		o.PPL = 4
	}
	if o.PPG == 0 {
		o.PPG = 4
	}
	if o.BatchWindow == 0 {
		o.BatchWindow = 32
	}
	return o
}

// Alltoaller is a persistent all-to-all operation bound to one rank of a
// communicator. Instances are created collectively by New (all ranks of
// the communicator must construct together, since topology-aware
// algorithms split communicators during setup), may be reused for any
// number of exchanges up to the maxBlock fixed at construction, and are
// not safe for concurrent use by multiple goroutines — like an MPI
// persistent request, one rank drives one instance. At most one exchange
// per operation may be outstanding at a time: Start fails until the
// previous handle has been completed by Wait or Test.
type Alltoaller interface {
	// Name returns the algorithm's registry name.
	Name() string
	// Alltoall exchanges block bytes per rank pair: send and recv must
	// each hold Size()*block bytes. It is exactly Start followed by
	// Wait, so Start's rules for the buffers hold here too.
	Alltoall(send, recv comm.Buffer, block int) error
	// Start launches the same exchange off the caller's critical path
	// and returns its handle, so communication can overlap computation
	// (real overlap on the live runtime, modeled overlap with
	// comm.Compute in the simulator). The buffers belong to the exchange
	// until the handle completes. It only reads send, but may read it at
	// any point until then. recv is its scratch until then: an algorithm
	// may stage intermediate blocks there, so after a failed exchange
	// recv's contents are unspecified.
	Start(send, recv comm.Buffer, block int) (Handle, error)
	// Phases returns this rank's per-phase timings for the last
	// completed exchange (empty for algorithms without internal phases).
	// The returned map is the caller's copy: mutating it never affects
	// the operation's timing state. It must not be called while an
	// exchange is outstanding.
	Phases() map[trace.Phase]float64
}

// factory builds an algorithm instance; maxBlock is the largest block the
// instance must support (staging buffers are sized for it).
type factory func(c comm.Comm, maxBlock int, o Options) (Alltoaller, error)

var registry = map[string]factory{
	"pairwise":    newPairwise,
	"nonblocking": newNonblocking,
	"batched":     newBatched,
	"bruck":       newBruck,
	"hierarchical": func(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
		return newHierarchical(c, maxBlock, o, true)
	},
	"multileader": func(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
		return newHierarchical(c, maxBlock, o, false)
	},
	"node-aware": func(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
		return newNodeAware(c, maxBlock, o, true)
	},
	"locality-aware": func(c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
		return newNodeAware(c, maxBlock, o, false)
	},
	"multileader-node-aware": newMultileaderNodeAware,
}

// init registers system-mpi separately: its factory recursively calls New,
// which would otherwise form an initialization cycle with the registry.
func init() { registry["system-mpi"] = newSystemMPI }

// Names returns all registered algorithm names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New constructs a persistent all-to-all of the named algorithm on c,
// able to exchange blocks up to maxBlock bytes. It is collective over c
// (topology-aware algorithms split communicators during construction).
func New(name string, c comm.Comm, maxBlock int, o Options) (Alltoaller, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (have %v)", name, Names())
	}
	if c == nil {
		return nil, errNilComm
	}
	if maxBlock <= 0 {
		return nil, fmt.Errorf("core: maxBlock must be positive, got %d", maxBlock)
	}
	return f(c, maxBlock, o.withDefaults())
}

// checkArgs validates an Alltoall invocation.
func checkArgs(c comm.Comm, send, recv comm.Buffer, block, maxBlock int) error {
	if block <= 0 {
		return fmt.Errorf("core: block must be positive, got %d", block)
	}
	if block > maxBlock {
		return fmt.Errorf("core: block %d exceeds maxBlock %d fixed at construction", block, maxBlock)
	}
	need := block * c.Size()
	if send.Len() < need {
		return fmt.Errorf("core: send buffer %d short of %d (%d ranks x %d)", send.Len(), need, c.Size(), block)
	}
	if recv.Len() < need {
		return fmt.Errorf("core: recv buffer %d short of %d (%d ranks x %d)", recv.Len(), need, c.Size(), block)
	}
	return nil
}

// innerExchange is a node-aware-family operation's inner all-to-all: the
// exchange it runs and, for Bruck, the scratch that exchange keeps across
// calls, made on its first use.
type innerExchange struct {
	kind  Inner
	bruck *bruckScratch
}

// run runs one inner exchange over c.
func (x *innerExchange) run(c comm.Comm, send, recv comm.Buffer, block int) error {
	if c.Size() == 1 {
		return c.Memcpy(recv.Slice(0, block), send.Slice(0, block))
	}
	switch x.kind {
	case InnerPairwise:
		return alltoallPairwise(c, send, recv, block)
	case InnerNonblocking:
		return alltoallNonblocking(c, send, recv, block)
	case InnerBruck:
		if x.bruck == nil {
			x.bruck = new(bruckScratch)
		}
		return x.bruck.run(c, send, recv, block)
	}
	return fmt.Errorf("core: unknown inner exchange %q", x.kind)
}
