// Package netmodel defines the first-order performance model of a
// many-core cluster and the presets for the paper's three systems (Table 1:
// Dane, Amber, Tuolomne). The model captures exactly the effects the
// paper's evaluation turns on:
//
//   - per-message CPU overheads and wire latency per locality level —
//     message-count costs, which the hierarchical and multi-leader+node-aware
//     algorithms reduce;
//   - a per-node NIC with finite bandwidth and a per-message processing
//     cost (Omni-Path is an onload design with a high per-message cost,
//     Slingshot-11 an offload design with a low one) — the injection
//     bottleneck that all node-aware schemes target;
//   - per-NUMA memory buses, an inter-socket link, and a per-core copy
//     engine — the intra-node redistribution costs that motivate
//     locality-aware aggregation;
//   - matching-queue search costs and an interleaved-sender penalty at the
//     NIC — why nonblocking exchanges degrade at scale and large sizes;
//   - lognormal noise and rare OS-noise spikes — why the paper reports the
//     minimum of three runs and observes nonblocking variability.
//
// Absolute simulated seconds are synthetic; the model is calibrated toward
// the paper's algorithm rankings, crossover message sizes and scaling
// shapes. Each experiment in internal/bench states the paper's shape in its
// Expectation string, which is printed, not evaluated; README's
// "Reproducing the paper" shows how to run them.
package netmodel

import (
	"fmt"
	"strings"

	"alltoallx/internal/topo"
)

// SysProfile describes how the vendor ("system") MPI all-to-all is
// emulated on a machine: a three-tier size-thresholded algorithm selection
// (mirroring Open MPI's tuned decision function: Bruck for small blocks, a
// linear nonblocking exchange for mid sizes, pairwise for large) plus a
// tuning factor on software overheads. The paper notes the proprietary
// implementations are unknown but "likely Bruck" at small sizes.
type SysProfile struct {
	// SmallAlgo is used for blocks of at most SmallMax bytes.
	SmallAlgo string
	SmallMax  int
	// MidAlgo is used for blocks of at most MidMax bytes.
	MidAlgo string
	MidMax  int
	// LargeAlgo is used above MidMax ("pairwise" on Open MPI stacks;
	// "node-aware" emulates Cray MPICH's aggregating large-message path).
	LargeAlgo string
	// OverheadScale multiplies CPU/NIC software overheads for system-MPI
	// runs (<1 models vendor tuning).
	OverheadScale float64
}

// Params is the complete cost model for one machine.
type Params struct {
	// Name is the machine name as in Table 1.
	Name string
	// CPU, Network, MPIName, LibFabric reproduce the Table 1 columns.
	CPU, Network, MPIName, LibFabric string
	// Node is the node shape.
	Node topo.Spec

	// Wire/hop latency per locality level, seconds.
	LatIntraNuma   float64
	LatIntraSocket float64
	LatInterSocket float64
	LatInterNode   float64

	// SendOverhead and RecvOverhead are per-operation CPU costs, seconds.
	SendOverhead float64
	RecvOverhead float64
	// MatchCost is the cost per matching-queue entry scanned, seconds.
	MatchCost float64

	// CopyBW is the single-core memory copy rate (bytes/s): the rate of
	// Memcpy repacking and of intra-node receive-side copies.
	CopyBW float64
	// CopyBlockCost is the fixed per-block cost of a repack copy (loop and
	// address arithmetic): at 4-byte blocks, repacking is block-count
	// bound, not bandwidth bound.
	CopyBlockCost float64
	// NumaBW is the per-NUMA-domain memory bus rate shared by its cores.
	NumaBW float64
	// SocketLinkBW is the inter-socket (UPI-like) link rate per node.
	SocketLinkBW float64

	// NICBW is the per-direction NIC bandwidth per node.
	NICBW float64
	// NICMsgCost is the per-message processing time at each NIC port.
	NICMsgCost float64
	// BusMsgCost is the per-message cost at memory-bus resources.
	BusMsgCost float64
	// InterleavePenalty is the fractional slowdown of a NIC transfer when
	// the previous transfer on the port came from a different peer
	// (incast/interleaving inefficiency; zero disables it).
	InterleavePenalty float64

	// FabricLinkBW is the per-direction bandwidth (bytes/s) of one
	// direct-connect fabric link when the flow-level contention model is
	// enabled (sim.ClusterConfig.Fabric). The analytic model charges only
	// the NIC ports for inter-node traffic; the flow level additionally
	// books each message onto every fabric link its route traverses, so
	// two schedules with equal message counts but different per-link load
	// become distinguishable. Zero disables the flow level for this
	// machine (a run requesting a fabric then fails fast).
	FabricLinkBW float64
	// FabricQueueBytes is the per-link queue depth in bytes: bytes of
	// in-flight traffic a link buffers before backpressure holds the next
	// message upstream (blocked time in the congestion statistics).
	FabricQueueBytes int

	// EagerMax is the eager/rendezvous protocol threshold in bytes.
	EagerMax int

	// NoiseSigma is the lognormal sigma applied to per-op overheads;
	// SpikeProb/SpikeMean describe rare OS-noise detours (exponential with
	// mean SpikeMean seconds, probability SpikeProb per operation).
	NoiseSigma float64
	SpikeProb  float64
	SpikeMean  float64

	// Sys is the system-MPI emulation profile.
	Sys SysProfile
}

// Latency returns the wire/hop latency for a locality level.
func (p *Params) Latency(l topo.Level) float64 {
	switch l {
	case topo.IntraNuma:
		return p.LatIntraNuma
	case topo.IntraSocket:
		return p.LatIntraSocket
	case topo.InterSocket:
		return p.LatInterSocket
	case topo.InterNode:
		return p.LatInterNode
	}
	return 0
}

// Validate reports configuration mistakes.
func (p *Params) Validate() error {
	if err := p.Node.Validate(); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LatIntraNuma", p.LatIntraNuma}, {"LatIntraSocket", p.LatIntraSocket},
		{"LatInterSocket", p.LatInterSocket}, {"LatInterNode", p.LatInterNode},
		{"SendOverhead", p.SendOverhead}, {"RecvOverhead", p.RecvOverhead},
		{"CopyBW", p.CopyBW}, {"NumaBW", p.NumaBW}, {"SocketLinkBW", p.SocketLinkBW},
		{"NICBW", p.NICBW},
	} {
		if f.v <= 0 {
			return fmt.Errorf("netmodel: %s must be positive in %q, got %g", f.name, p.Name, f.v)
		}
	}
	if p.MatchCost < 0 || p.NICMsgCost < 0 || p.BusMsgCost < 0 || p.InterleavePenalty < 0 {
		return fmt.Errorf("netmodel: negative per-message cost in %q", p.Name)
	}
	if p.FabricLinkBW < 0 {
		return fmt.Errorf("netmodel: FabricLinkBW must be non-negative in %q, got %g", p.Name, p.FabricLinkBW)
	}
	if p.FabricQueueBytes < 0 {
		return fmt.Errorf("netmodel: FabricQueueBytes must be non-negative in %q, got %d", p.Name, p.FabricQueueBytes)
	}
	if p.FabricLinkBW > 0 && p.FabricQueueBytes == 0 {
		return fmt.Errorf("netmodel: FabricLinkBW set without FabricQueueBytes in %q (a zero-depth link would backpressure every message)", p.Name)
	}
	if p.EagerMax < 0 {
		return fmt.Errorf("netmodel: EagerMax must be non-negative in %q", p.Name)
	}
	if p.NoiseSigma < 0 || p.SpikeProb < 0 || p.SpikeProb > 1 || p.SpikeMean < 0 {
		return fmt.Errorf("netmodel: invalid noise configuration in %q", p.Name)
	}
	if p.Sys.OverheadScale <= 0 {
		return fmt.Errorf("netmodel: Sys.OverheadScale must be positive in %q", p.Name)
	}
	if p.Sys.SmallMax < 0 || p.Sys.MidMax < p.Sys.SmallMax {
		return fmt.Errorf("netmodel: Sys thresholds out of order in %q: small %d, mid %d",
			p.Name, p.Sys.SmallMax, p.Sys.MidMax)
	}
	return nil
}

// Dane models LLNL's Dane: Intel Sapphire Rapids (112 cores, 2 sockets x 4
// NUMA x 14 cores), Cornelis Omni-Path (onload NIC: high per-message cost),
// Open MPI 4.1.2 over libfabric 2.2.0.
func Dane() Params {
	return Params{
		Name: "Dane", CPU: "Intel Sapphire Rapids", Network: "Cornelis Networks Omni-Path",
		MPIName: "OpenMPI 4.1.2", LibFabric: "2.2.0",
		Node:              topo.SapphireRapids(),
		LatIntraNuma:      3.0e-7,
		LatIntraSocket:    4.5e-7,
		LatInterSocket:    7.5e-7,
		LatInterNode:      1.25e-6,
		SendOverhead:      1.2e-7,
		RecvOverhead:      1.3e-7,
		MatchCost:         3.0e-9,
		CopyBW:            5.0e9,
		CopyBlockCost:     2.0e-9,
		NumaBW:            3.0e10,
		SocketLinkBW:      2.5e10,
		NICBW:             1.25e10,
		NICMsgCost:        2.6e-7,
		BusMsgCost:        2.0e-8,
		InterleavePenalty: 0.9,
		FabricLinkBW:      1.25e10, // links match injection bandwidth
		FabricQueueBytes:  1 << 20,
		EagerMax:          65536, // PSM2-like rendezvous threshold
		NoiseSigma:        0.04,
		SpikeProb:         2.0e-5,
		SpikeMean:         2.0e-5,
		Sys: SysProfile{
			SmallAlgo: "bruck", SmallMax: 256,
			MidAlgo: "nonblocking", MidMax: 3000,
			LargeAlgo: "pairwise", OverheadScale: 1.0,
		},
	}
}

// Amber models SNL's Amber: same Sapphire Rapids / Omni-Path generation as
// Dane but Open MPI 4.1.6 with the older libfabric 2.1.0 (slightly higher
// latency and per-message cost, more OS noise).
func Amber() Params {
	p := Dane()
	p.Name = "Amber"
	p.MPIName = "OpenMPI 4.1.6"
	p.LibFabric = "2.1.0"
	p.LatInterNode = 1.4e-6
	p.NICMsgCost = 2.8e-7
	p.SpikeProb = 3.0e-5
	return p
}

// Tuolomne models LLNL's Tuolomne: AMD MI300A (96 cores, modeled as 4 NUMA
// domains of 24 cores, HBM memory), Slingshot-11 (offload NIC: low
// per-message cost, 200 Gb/s), HPE Cray MPICH 8.1.32. The Cray system MPI
// is emulated with a tuned small-message path and an aggregating
// large-message path, matching Figure 18 where system MPI wins at large
// sizes.
func Tuolomne() Params {
	return Params{
		Name: "Tuolomne", CPU: "AMD Instinct MI300A", Network: "Slingshot-11",
		MPIName: "HPE Cray MPICH 8.1.32", LibFabric: "2.1",
		Node:              topo.MI300A(),
		LatIntraNuma:      2.5e-7,
		LatIntraSocket:    4.0e-7,
		LatInterSocket:    6.0e-7, // unused: single-socket package
		LatInterNode:      1.8e-6,
		SendOverhead:      1.0e-7,
		RecvOverhead:      1.1e-7,
		MatchCost:         2.5e-9,
		CopyBW:            8.0e9,
		CopyBlockCost:     1.5e-9,
		NumaBW:            6.0e10,
		SocketLinkBW:      5.0e10,
		NICBW:             2.5e10,
		NICMsgCost:        4.0e-8,
		BusMsgCost:        1.5e-8,
		InterleavePenalty: 0.25,
		FabricLinkBW:      2.5e10, // 200 Gb/s links, matching injection
		FabricQueueBytes:  2 << 20,
		EagerMax:          16384, // Slingshot/Cassini-like rendezvous threshold
		NoiseSigma:        0.04,
		SpikeProb:         1.5e-5,
		SpikeMean:         1.5e-5,
		Sys: SysProfile{
			SmallAlgo: "bruck", SmallMax: 1024,
			MidAlgo: "node-aware", MidMax: 1 << 30,
			LargeAlgo: "node-aware", OverheadScale: 0.85,
		},
	}
}

// Machines returns all Table 1 presets in paper order.
func Machines() []Params { return []Params{Dane(), Amber(), Tuolomne()} }

// Names returns the machine names of Machines() in paper order — the
// single source for "-machine" flag docs and error messages, so adding a
// preset updates every cmd's help and diagnostics at once.
func Names() []string {
	ms := Machines()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// ByName returns the preset with the given (case-sensitive) name.
func ByName(name string) (Params, error) {
	for _, m := range Machines() {
		if m.Name == name {
			return m, nil
		}
	}
	return Params{}, fmt.Errorf("netmodel: unknown machine %q (have %s)", name, strings.Join(Names(), ", "))
}
