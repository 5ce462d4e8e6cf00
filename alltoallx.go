// Package alltoallx is a Go reproduction of "Scaling All-to-all Operations
// Across Emerging Many-Core Supercomputers" (Kinkead et al., SC Workshops
// '25): a library of all-to-all collective algorithms for many-core
// systems — hierarchical, multi-leader, node-aware, and the paper's novel
// locality-aware and multi-leader+node-aware schemes — together with the
// two substrates needed to use and evaluate them without MPI:
//
//   - a live in-process message-passing runtime (one goroutine per rank)
//     for real data exchanges on the machine at hand, and
//   - a deterministic discrete-event simulator with cost models of the
//     paper's three systems (Dane, Amber, Tuolomne) for cluster-scale
//     performance studies.
//
// Quick start (live ranks, real data):
//
//	mapping, _ := alltoallx.NewMapping(alltoallx.SapphireRapidsNode(), 2, 8)
//	err := alltoallx.RunLive(alltoallx.LiveConfig{Mapping: mapping}, func(c alltoallx.Comm) error {
//		a, err := alltoallx.New("node-aware", c, 64, alltoallx.Options{})
//		if err != nil {
//			return err
//		}
//		send, recv := alltoallx.Alloc(c.Size()*64), alltoallx.Alloc(c.Size()*64)
//		return a.Alltoall(send, recv, 64)
//	})
//
// Performance studies run the same per-rank body under Simulate with a
// Machine preset. The cmd/alltoallbench tool regenerates every table and
// figure of the paper, and cmd/a2atune precomputes per-size dispatch
// tables for the "tuned" algorithm; see README.md for the architecture
// map and the tune -> dispatch workflow.
//
// # Unified persistent-operation API
//
// Every collective follows one model: a registry of named algorithms, a
// collective constructor that performs all communicator splitting and
// staging setup (outside the timed region, as the paper measures), and a
// reusable operation object with a Phases() breakdown:
//
//	New(name, c, maxBlock, o)        -> Alltoaller      (fixed-size all-to-all)
//	NewV(name, c, maxTotal, o)       -> Alltoallver     (MPI_Alltoallv)
//
// Both all-to-all registries include a "tuned" meta-algorithm driven by a
// persisted autotune table (cmd/a2atune -op alltoall|alltoallv); one
// dispatcher serves both operations. DisplsFromCounts is the packing
// helper for variable-sized calls: it turns per-peer byte counts into
// contiguous displacements plus the total buffer length.
//
// # Nonblocking exchanges
//
// Every persistent operation is also nonblocking: Start launches the
// exchange off the caller's critical path and returns a Handle with Wait
// and Test; the blocking methods are exactly Start followed by Wait, and
// at most one exchange per operation may be outstanding (MPI
// persistent-request semantics). On the live runtime a started exchange
// runs on its own driver goroutine, overlapping with whatever Go code the
// caller runs before Wait. In the simulator, Comm.Compute(seconds)
// models application compute, and any compute issued while a handle is
// outstanding hides behind the exchange's waiting time — so a
// Start / Compute / Wait sequence costs max(comm, compute + software
// overhead) of virtual time, and `alltoallbench -experiment overlap`
// quantifies the hideable fraction per algorithm:
//
//	a, _ := alltoallx.New("node-aware", c, 64, alltoallx.Options{})
//	h, err := a.Start(send, recv, 64)
//	if err != nil { return err }
//	computeSomething()        // overlapped with the exchange
//	c.Compute(0.001)          // modeled compute (simulator)
//	if err := h.Wait(); err != nil { return err }
package alltoallx

import (
	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
	"alltoallx/internal/trace"
)

// Comm is the MPI-like communicator all algorithms are written against.
type Comm = comm.Comm

// Buffer is a communication buffer (real or virtual).
type Buffer = comm.Buffer

// Request is an in-flight nonblocking operation.
type Request = comm.Request

// Alloc returns a real zeroed buffer of n bytes.
func Alloc(n int) Buffer { return comm.Alloc(n) }

// Wrap returns a buffer aliasing p.
func Wrap(p []byte) Buffer { return comm.Wrap(p) }

// Virtual returns a storage-less buffer of n bytes for simulations.
func Virtual(n int) Buffer { return comm.Virtual(n) }

// NodeSpec describes the shape of one node (sockets x NUMA x cores).
type NodeSpec = topo.Spec

// Mapping is a block layout of ranks onto nodes.
type Mapping = topo.Mapping

// NewMapping lays out nodes*ppn ranks over nodes of the given shape.
func NewMapping(spec NodeSpec, nodes, ppn int) (*Mapping, error) {
	return topo.NewMapping(spec, nodes, ppn)
}

// SapphireRapidsNode is the 112-core node shape of Dane and Amber.
func SapphireRapidsNode() NodeSpec { return topo.SapphireRapids() }

// MI300ANode is the 96-core node shape of Tuolomne.
func MI300ANode() NodeSpec { return topo.MI300A() }

// Alltoaller is a persistent all-to-all operation.
type Alltoaller = core.Alltoaller

// Handle is an in-flight started collective exchange: Wait blocks until
// completion, Test polls. Handles come from the Start method of any
// persistent operation and are driven by the rank that started them.
type Handle = core.Handle

// WaitAll waits for every handle, ignoring nil entries, and returns the
// joined errors of the failures.
func WaitAll(hs []Handle) error { return core.WaitAll(hs) }

// Options configures algorithm construction.
type Options = core.Options

// Inner selects the exchange used inside node-aware algorithms.
type Inner = core.Inner

// Inner exchange choices (the paper's solid/dashed line variants).
const (
	InnerPairwise    = core.InnerPairwise
	InnerNonblocking = core.InnerNonblocking
	InnerBruck       = core.InnerBruck
)

// Phase names one internal stage of an algorithm (gather, scatter, inter,
// intra, repack, total).
type Phase = trace.Phase

// Phases reported by Alltoaller.Phases.
const (
	PhaseGather  = trace.PhaseGather
	PhaseScatter = trace.PhaseScatter
	PhaseInter   = trace.PhaseInter
	PhaseIntra   = trace.PhaseIntra
	PhaseRepack  = trace.PhaseRepack
	PhaseTotal   = trace.PhaseTotal
)

// Dispatch is the size-bucketed algorithm-selection spec the "tuned"
// meta-algorithm executes (see internal/autotune for building one offline
// and persisting it as JSON).
type Dispatch = core.Dispatch

// DispatchEntry is one size bucket of a Dispatch.
type DispatchEntry = core.DispatchEntry

// Op names the collective operation a dispatch spec or autotune table was
// tuned for.
type Op = core.Op

// Tunable operation kinds.
const (
	OpAlltoall  = core.OpAlltoall
	OpAlltoallv = core.OpAlltoallv
)

// New constructs the named algorithm on c (collective call). Algorithm
// names: pairwise, nonblocking, batched, bruck, hierarchical, multileader,
// node-aware, locality-aware, multileader-node-aware, system-mpi, tuned.
func New(name string, c Comm, maxBlock int, o Options) (Alltoaller, error) {
	return core.New(name, c, maxBlock, o)
}

// Algorithms returns all registered algorithm names.
func Algorithms() []string { return core.Names() }

// LiveConfig configures an in-process world of ranks.
type LiveConfig = runtime.Config

// RunLive spawns one goroutine per rank and calls body with each rank's
// world communicator.
func RunLive(cfg LiveConfig, body func(c Comm) error) error {
	return runtime.Run(cfg, body)
}

// Machine is a simulated machine model.
type Machine = netmodel.Params

// Dane returns the model of LLNL's Dane (Sapphire Rapids + Omni-Path).
func Dane() Machine { return netmodel.Dane() }

// Amber returns the model of SNL's Amber (Sapphire Rapids + Omni-Path).
func Amber() Machine { return netmodel.Amber() }

// Tuolomne returns the model of LLNL's Tuolomne (MI300A + Slingshot-11).
func Tuolomne() Machine { return netmodel.Tuolomne() }

// MachineByName returns a machine preset by name.
func MachineByName(name string) (Machine, error) { return netmodel.ByName(name) }

// SimConfig configures a simulated cluster run.
type SimConfig = sim.ClusterConfig

// SimStats summarizes a finished simulation.
type SimStats = sim.Stats

// Simulate runs body once per simulated rank under virtual time.
func Simulate(cfg SimConfig, body func(c Comm) error) (SimStats, error) {
	return sim.RunCluster(cfg, body)
}
