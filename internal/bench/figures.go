package bench

import (
	"fmt"
	"sort"

	"alltoallx/internal/core"
	"alltoallx/internal/trace"
)

// XKind names the x-axis of an experiment.
type XKind int

const (
	// XSize sweeps per-process message size in bytes (most figures).
	XSize XKind = iota
	// XNodes sweeps node count (Figures 11, 12, 15).
	XNodes
	// XPPG sweeps locality-aware group size; the value 0 denotes the
	// node-aware algorithm, i.e. one whole-node group (Figure 16).
	XPPG
)

func (k XKind) String() string {
	switch k {
	case XSize:
		return "msg-size-bytes"
	case XNodes:
		return "nodes"
	case XPPG:
		return "procs-per-group"
	}
	return fmt.Sprintf("XKind(%d)", int(k))
}

// Series is one plotted line or bar group.
type Series struct {
	// Label as it appears in the paper's legend.
	Label string
	// Algo and Opts select the algorithm (Algo may be overridden by an
	// XPPG sweep).
	Algo string
	Opts core.Options
	// Phase, when non-empty, reports that internal phase instead of the
	// total (breakdown figures).
	Phase trace.Phase
	// Fabric, when non-empty, measures under the flow-level contention
	// model over that fabric kind (Config.Fabric).
	Fabric string
	// MaxRanks, when positive, skips the series at worlds larger than
	// this: a cap on the cost of executing it under the simulator.
	MaxRanks int
}

// Experiment describes one paper table or figure, or one snapshot sweep.
type Experiment struct {
	// ID is the registry key, e.g. "fig10".
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Machine is the netmodel preset name (empty in a snapshot sweep,
	// which runs on every Table 1 machine).
	Machine string
	// Op selects the measured collective (zero = fixed-size alltoall; the
	// paper's figures all measure it). OpAlltoallv experiments sweep the
	// mean payload per peer of the Zipf-skewed scenario.
	Op core.Op
	// XAxis and Xs define the sweep.
	XAxis XKind
	Xs    []int
	// Nodes is the node count for non-XNodes experiments.
	Nodes int
	// Block is the per-process message size for non-XSize experiments.
	Block int
	// Series are the plotted lines/bars.
	Series []Series
	// Expectation states the qualitative shape the paper reports. It is
	// printed in the table header ("paper shape:"), not evaluated: no
	// check compares a run against it.
	Expectation string
}

// paper sweep: 4 B to 4096 B, powers of two (Figure 13 x-axis labels).
func sizes4to4096() []int {
	var out []int
	for s := 4; s <= 4096; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Tuolomne's Figure 18 extends to 8 KiB.
func sizes4to8192() []int { return append(sizes4to4096(), 8192) }

func nodes2to32() []int { return []int{2, 4, 8, 16, 32} }

const (
	pw = core.InnerPairwise
	nb = core.InnerNonblocking
)

// Experiments returns every reproduced experiment in paper order.
func Experiments() []Experiment {
	all := []Experiment{
		{
			ID: "fig7", Title: "Hierarchical vs Multileader (Dane, 32 nodes)",
			Machine: "Dane", XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series: []Series{
				{Label: "System MPI", Algo: "system-mpi"},
				{Label: "Hierarchical", Algo: "hierarchical", Opts: core.Options{Inner: pw}},
				{Label: "Hierarchical (nb)", Algo: "hierarchical", Opts: core.Options{Inner: nb}},
				{Label: "4 Proc Per Leader", Algo: "multileader", Opts: core.Options{Inner: pw, PPL: 4}},
				{Label: "4 PPL (nb)", Algo: "multileader", Opts: core.Options{Inner: nb, PPL: 4}},
				{Label: "8 Proc Per Leader", Algo: "multileader", Opts: core.Options{Inner: pw, PPL: 8}},
				{Label: "8 PPL (nb)", Algo: "multileader", Opts: core.Options{Inner: nb, PPL: 8}},
				{Label: "16 Proc Per Leader", Algo: "multileader", Opts: core.Options{Inner: pw, PPL: 16}},
				{Label: "16 PPL (nb)", Algo: "multileader", Opts: core.Options{Inner: nb, PPL: 16}},
			},
			Expectation: "Large sizes: more leaders win (4 PPL best, plain hierarchical worst). Small sizes: multileader beats hierarchical, fewer leaders preferred (16 PPL best among the tested multileader configs).",
		},
		{
			ID: "fig8", Title: "Node-Aware vs Locality-Aware (Dane, 32 nodes)",
			Machine: "Dane", XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series: []Series{
				{Label: "System MPI", Algo: "system-mpi"},
				{Label: "Node-Aware", Algo: "node-aware", Opts: core.Options{Inner: pw}},
				{Label: "Node-Aware (nb)", Algo: "node-aware", Opts: core.Options{Inner: nb}},
				{Label: "4 Proc Per Group", Algo: "locality-aware", Opts: core.Options{Inner: pw, PPG: 4}},
				{Label: "4 PPG (nb)", Algo: "locality-aware", Opts: core.Options{Inner: nb, PPG: 4}},
				{Label: "8 Proc Per Group", Algo: "locality-aware", Opts: core.Options{Inner: pw, PPG: 8}},
				{Label: "8 PPG (nb)", Algo: "locality-aware", Opts: core.Options{Inner: nb, PPG: 8}},
				{Label: "16 Proc Per Group", Algo: "locality-aware", Opts: core.Options{Inner: pw, PPG: 16}},
				{Label: "16 PPG (nb)", Algo: "locality-aware", Opts: core.Options{Inner: nb, PPG: 16}},
			},
			Expectation: "Node-aware best for most sizes; locality-aware (small groups) overtakes it only at the largest tested size (4096 B).",
		},
		{
			ID: "fig9", Title: "Multileader + Node-Aware leader sweep (Dane, 32 nodes)",
			Machine: "Dane", XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series: []Series{
				{Label: "System MPI", Algo: "system-mpi"},
				{Label: "Hierarchical", Algo: "hierarchical", Opts: core.Options{Inner: pw}},
				{Label: "4 Proc Per Leader", Algo: "multileader-node-aware", Opts: core.Options{Inner: pw, PPL: 4}},
				{Label: "4 PPL (nb)", Algo: "multileader-node-aware", Opts: core.Options{Inner: nb, PPL: 4}},
				{Label: "8 Proc Per Leader", Algo: "multileader-node-aware", Opts: core.Options{Inner: pw, PPL: 8}},
				{Label: "8 PPL (nb)", Algo: "multileader-node-aware", Opts: core.Options{Inner: nb, PPL: 8}},
				{Label: "16 Proc Per Leader", Algo: "multileader-node-aware", Opts: core.Options{Inner: pw, PPL: 16}},
				{Label: "16 PPL (nb)", Algo: "multileader-node-aware", Opts: core.Options{Inner: nb, PPL: 16}},
				{Label: "Node-Aware", Algo: "node-aware", Opts: core.Options{Inner: pw}},
			},
			Expectation: "Small sizes favor many-but-not-all leaders (around 4 PPL, ~28 leaders); one leader reduces to hierarchical, all-leaders reduces to node-aware.",
		},
		{
			ID: "fig10", Title: "All algorithms (Dane, 32 nodes, PPL=PPG=4)",
			Machine: "Dane", XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series: []Series{
				{Label: "System MPI", Algo: "system-mpi"},
				{Label: "Hierarchical", Algo: "hierarchical", Opts: core.Options{Inner: pw}},
				{Label: "Node-Aware", Algo: "node-aware", Opts: core.Options{Inner: pw}},
				{Label: "Multileader", Algo: "multileader", Opts: core.Options{Inner: pw, PPL: 4}},
				{Label: "Locality-Aware", Algo: "locality-aware", Opts: core.Options{Inner: pw, PPG: 4}},
				{Label: "Multileader + Locality", Algo: "multileader-node-aware", Opts: core.Options{Inner: pw, PPL: 4}},
			},
			Expectation: "Multileader+node-aware best at small sizes (beating system MPI's Bruck); node-aware best at mid sizes; locality-aware best at the largest size.",
		},
		{
			ID: "fig11", Title: "Node scaling at 4 B (Dane)",
			Machine: "Dane", XAxis: XNodes, Xs: nodes2to32(), Block: 4,
			Series:      allSixSeries(),
			Expectation: "Multileader+node-aware fastest across node counts at 4 B; hierarchical and plain multileader trail system MPI.",
		},
		{
			ID: "fig12", Title: "Node scaling at 4096 B (Dane)",
			Machine: "Dane", XAxis: XNodes, Xs: nodes2to32(), Block: 4096,
			Series:      allSixSeries(),
			Expectation: "Node-aware and locality-aware fastest at 4096 B (about 3x over system MPI at 32 nodes); hierarchical worst.",
		},
		{
			ID: "fig13", Title: "Hierarchical timing breakdown (Dane, 32 nodes)",
			Machine: "Dane", XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series: []Series{
				{Label: "MPI Gather", Algo: "hierarchical", Opts: core.Options{Inner: pw}, Phase: trace.PhaseGather},
				{Label: "MPI Scatter", Algo: "hierarchical", Opts: core.Options{Inner: pw}, Phase: trace.PhaseScatter},
				{Label: "Alltoall (Pairwise)", Algo: "hierarchical", Opts: core.Options{Inner: pw}, Phase: trace.PhaseInter},
				{Label: "Alltoall (Nonblocking)", Algo: "hierarchical", Opts: core.Options{Inner: nb}, Phase: trace.PhaseInter},
			},
			Expectation: "Leader all-to-all dominates below ~256 B (nonblocking beating pairwise until ~2 KiB); gather/scatter dominate at larger sizes.",
		},
		{
			ID: "fig14", Title: "Node-aware intra/inter breakdown (Dane, 32 nodes)",
			Machine: "Dane", XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series: []Series{
				{Label: "Intra-Node (Pairwise)", Algo: "node-aware", Opts: core.Options{Inner: pw}, Phase: trace.PhaseIntra},
				{Label: "Inter-Node (Pairwise)", Algo: "node-aware", Opts: core.Options{Inner: pw}, Phase: trace.PhaseInter},
				{Label: "Intra-Node (Nonblocking)", Algo: "node-aware", Opts: core.Options{Inner: nb}, Phase: trace.PhaseIntra},
				{Label: "Inter-Node (Nonblocking)", Algo: "node-aware", Opts: core.Options{Inner: nb}, Phase: trace.PhaseInter},
			},
			Expectation: "Inter-node dominates at every size; intra-node scales along with it.",
		},
		{
			ID: "fig15", Title: "Node-aware breakdown vs node count (Dane, 4096 B, pairwise)",
			Machine: "Dane", XAxis: XNodes, Xs: nodes2to32(), Block: 4096,
			Series: []Series{
				{Label: "Intra-Node Alltoall", Algo: "node-aware", Opts: core.Options{Inner: pw}, Phase: trace.PhaseIntra},
				{Label: "Inter-Node Alltoall", Algo: "node-aware", Opts: core.Options{Inner: pw}, Phase: trace.PhaseInter},
			},
			Expectation: "Inter-node dominates at every node count; both components grow with scale.",
		},
		{
			ID: "fig16", Title: "Locality-aware breakdown vs group size (Dane, 4096 B, 32 nodes)",
			Machine: "Dane", XAxis: XPPG, Xs: []int{0, 16, 8, 4}, Nodes: 32, Block: 4096,
			Series: []Series{
				{Label: "Intra-Node Alltoall", Algo: "locality-aware", Opts: core.Options{Inner: pw}, Phase: trace.PhaseIntra},
				{Label: "Inter-Node Alltoall", Algo: "locality-aware", Opts: core.Options{Inner: pw}, Phase: trace.PhaseInter},
			},
			Expectation: "Inter-node dominates in every configuration; 16 and 4 PPG show slightly better inter-node time than 8 PPG and node-aware (group-size tuning is not single-modal).",
		},
		{
			ID: "fig17", Title: "Best algorithms on Amber (32 nodes)",
			Machine: "Amber", XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series:      bestFourSeries(),
			Expectation: "Like Dane: multileader+node-aware best at small sizes, node-aware best at large sizes.",
		},
		{
			ID: "fig18", Title: "Best algorithms on Tuolomne (32 nodes)",
			Machine: "Tuolomne", XAxis: XSize, Xs: sizes4to8192(), Nodes: 32,
			Series:      bestFourSeries(),
			Expectation: "Node-aware best at small sizes with system MPI close behind; system MPI best at large sizes.",
		},
		{
			ID: "alltoallv", Title: "Alltoallv with Zipf-skewed counts (Dane, 32 nodes)",
			Machine: "Dane", Op: core.OpAlltoallv, XAxis: XSize, Xs: sizes4to4096(), Nodes: 32,
			Series: []Series{
				{Label: "Pairwise", Algo: "pairwise"},
				{Label: "Nonblocking", Algo: "nonblocking"},
				{Label: "Node-Aware", Algo: "node-aware", Opts: core.Options{Inner: pw}},
				{Label: "Locality-Aware", Algo: "locality-aware", Opts: core.Options{Inner: pw, PPG: 4}},
			},
			Expectation: "Leader aggregation (node-aware) wins at small and medium mean sizes where per-message " +
				"overheads dominate the skewed exchange; the flat variants close the gap as payloads grow.",
		},
	}
	return all
}

func allSixSeries() []Series {
	return []Series{
		{Label: "System MPI", Algo: "system-mpi"},
		{Label: "Hierarchical", Algo: "hierarchical", Opts: core.Options{Inner: pw}},
		{Label: "Node-Aware", Algo: "node-aware", Opts: core.Options{Inner: pw}},
		{Label: "Multileader", Algo: "multileader", Opts: core.Options{Inner: pw, PPL: 4}},
		{Label: "Locality-Aware", Algo: "locality-aware", Opts: core.Options{Inner: pw, PPG: 4}},
		{Label: "Multileader + Locality", Algo: "multileader-node-aware", Opts: core.Options{Inner: pw, PPL: 4}},
	}
}

func bestFourSeries() []Series {
	return []Series{
		{Label: "System MPI", Algo: "system-mpi"},
		{Label: "Node-Aware", Algo: "node-aware", Opts: core.Options{Inner: pw}},
		{Label: "Locality-Aware", Algo: "locality-aware", Opts: core.Options{Inner: pw, PPG: 4}},
		{Label: "Multileader + Locality", Algo: "multileader-node-aware", Opts: core.Options{Inner: pw, PPL: 4}},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v and table1)", id, ids)
}
