package sim

import (
	"fmt"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/topo"
)

// ClusterConfig describes one simulated run.
type ClusterConfig struct {
	// Model is the machine cost model (a netmodel preset or custom).
	Model netmodel.Params
	// Nodes and PPN shape the job: Nodes*PPN ranks, block-mapped.
	Nodes int
	PPN   int
	// Seed fixes the noise stream; different seeds give the paper's
	// "3 runs" variability.
	Seed int64
	// OverheadScale scales software overheads (system-MPI vendor profile);
	// zero means 1.0.
	OverheadScale float64
	// Fabric, when non-empty, names a topo.Fabric kind ("ring", "torus",
	// "hypercube") and enables the flow-level contention model: every
	// inter-node message is booked onto the per-link FIFO queues of that
	// fabric over the job's nodes. Requires the model's FabricLinkBW /
	// FabricQueueBytes; empty runs the analytic model alone.
	Fabric string
}

// Stats summarizes a finished simulation.
type Stats struct {
	// Events is the number of discrete events processed.
	Events uint64
	// Messages is the number of point-to-point messages simulated.
	Messages uint64
	// VirtualSeconds is the final global virtual time.
	VirtualSeconds float64
	// LinkBlockedSeconds and LinkQueuedSeconds sum backpressure and FIFO
	// waits over all fabric links (zero without ClusterConfig.Fabric).
	LinkBlockedSeconds float64
	LinkQueuedSeconds  float64
	// MaxLinkQueueBytes is the deepest any fabric link's queue got.
	MaxLinkQueueBytes int
}

// cluster is the shared state of one simulated job.
type cluster struct {
	e       *Engine
	net     *Network
	mapping *topo.Mapping
	procs   []*Proc
	nextCtx int64
	splits  map[splitKey]*splitGather
}

// RunCluster simulates an SPMD program: body runs once per rank against
// that rank's world communicator, under virtual time. It returns simulation
// statistics and the joined error of failing ranks (or a deadlock
// diagnosis).
func RunCluster(cfg ClusterConfig, body func(c comm.Comm) error) (Stats, error) {
	return RunClusterDebug(cfg, body, nil)
}

// RunClusterDebug is RunCluster with a post-run hook receiving the network
// (its flow-level report) and final virtual time (diagnostics for model
// calibration). The hook runs before the flow report is folded into Stats,
// so it sees the links' live queues.
func RunClusterDebug(cfg ClusterConfig, body func(c comm.Comm) error, report func(net *Network, final float64)) (Stats, error) {
	if cfg.PPN <= 0 || cfg.Nodes <= 0 {
		return Stats{}, fmt.Errorf("sim: invalid cluster shape %d nodes x %d ppn", cfg.Nodes, cfg.PPN)
	}
	mapping, err := topo.NewMapping(cfg.Model.Node, cfg.Nodes, cfg.PPN)
	if err != nil {
		return Stats{}, err
	}
	scale := cfg.OverheadScale
	if scale == 0 {
		scale = 1.0
	}
	e := NewEngine()
	net, err := NewNetwork(e, cfg.Model, mapping, cfg.Seed, scale, cfg.Fabric)
	if err != nil {
		return Stats{}, err
	}
	cl := &cluster{
		e:       e,
		net:     net,
		mapping: mapping,
		splits:  make(map[splitKey]*splitGather),
		nextCtx: 1,
	}
	n := mapping.Size()
	worldRanks := make([]int, n)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	cl.procs = make([]*Proc, n)
	worldID := cl.nextCtx
	cl.nextCtx++
	for r := 0; r < n; r++ {
		rank := r
		c := &SimComm{cl: cl, id: worldID, rank: rank, ranks: worldRanks, isWorld: true}
		cl.procs[rank] = e.Spawn(rank, func(p *Proc) error {
			c.p = p
			return body(c)
		})
		c.p = cl.procs[rank] // available immediately for Split result construction
	}
	runErr := e.Run()
	if report != nil {
		report(net, e.Now())
	}
	st := Stats{Events: e.EventsProcessed(), Messages: net.MessagesSent(), VirtualSeconds: e.Now()}
	if fr := net.FlowReport(); fr != nil {
		st.LinkBlockedSeconds = fr.TotalBlockedSeconds
		st.LinkQueuedSeconds = fr.TotalQueuedSeconds
		st.MaxLinkQueueBytes = fr.MaxQueueBytes
	}
	return st, runErr
}
