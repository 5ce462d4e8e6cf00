// Command alltoallbench regenerates the paper's tables and figures.
//
// Each experiment ID corresponds to one figure of the evaluation (fig7 ..
// fig18) or table1. The default "quick" scale runs a reduced cluster
// (8 nodes x 16 ranks) in seconds of wall time; not every figure keeps
// the paper's shape there (ROADMAP item 2). "-scale full" reproduces the
// paper's 32-node, all-cores configuration; it does not finish on an 8 GB
// host, where Dane's system-MPI points at 512-2048 B keep all ~12.8M
// messages in flight (README, "Reproducing the paper").
//
// regress, scale and contention are the snapshot sweeps behind the
// committed BENCH_*.json files; -json writes one, a header line then one
// row per line.
//
// Usage:
//
//	go run ./cmd/alltoallbench -experiment fig10
//	go run ./cmd/alltoallbench -experiment all -scale full -csv results/
//
// With -table, instead of a paper figure it benchmarks the autotuned
// "tuned" dispatcher (built from the table written by a2atune -o) against
// static algorithms, at the table's world shape and over the table's size
// grid:
//
//	go run ./cmd/alltoallbench -table table.json -algo tuned,bruck,system-mpi
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"alltoallx/internal/autotune"
	"alltoallx/internal/bench"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/schedreg"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (fig7..fig18, table1, headline, overlap, regress, scale, contention, drift) or 'all'")
		scaleName  = flag.String("scale", "quick", "reproduction scale: quick or full")
		nodes      = flag.Int("nodes", 0, "override node count (0 = experiment default)")
		ppn        = flag.Int("ppn", 0, "override ranks per node (0 = scale default)")
		runs       = flag.Int("runs", 0, "override runs per point (0 = scale default)")
		csvDir     = flag.String("csv", "", "directory for CSV output (empty = none)")
		plot       = flag.Bool("plot", false, "render an ASCII log-scale chart of each figure")
		verbose    = flag.Bool("v", false, "print per-point progress")
		tablePath  = flag.String("table", "", "autotune dispatch table (JSON): benchmark it instead of a figure")
		opName     = flag.String("op", "alltoall",
			"with -table: the collective the table must be tuned for (alltoall or alltoallv)")
		algoList = flag.String("algo", "",
			"with -table: comma-separated algorithms to compare (tuned = the table's dispatcher; default depends on -op)")
		machineName = flag.String("machine", "Dane",
			"with -experiment overlap: machine preset ("+strings.Join(netmodel.Names(), ", ")+")")
		computeFrac = flag.Float64("computefrac", 1.0,
			"with -experiment overlap: modeled compute between Start and Wait, as a fraction of the blocking exchange time")
		blockSize = flag.Int("block", 4096,
			"with -experiment overlap: block bytes per rank pair")
		jsonPath = flag.String("json", "",
			"with -experiment regress, scale, contention or drift: write the machine-readable output (BENCH_regress.json / BENCH_scale.json / BENCH_contention.json / BENCH_drift.json) to this path")
		maxRanks = flag.Int("maxranks", 0,
			"with -experiment scale, contention or drift: cap the swept world size (0 = the experiment's full sweep; CI's scale smoke uses 256)")
		schedRoot = flag.String("schedreg", "", "schedule-registry directory: resolve sched:* programs through it (each world proved once across processes)")
	)
	flag.Parse()
	fetch, err := schedreg.FetcherFor(*schedRoot)
	if err != nil {
		fatal(err)
	}
	core.SetSchedFetcher(fetch)

	scale, err := scaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	if *ppn > 0 {
		scale.PPN = *ppn
	}
	if *runs > 0 {
		scale.Runs = *runs
	}
	var progress func(string)
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}

	if rejects, ok := snapshotRejects[*experiment]; ok {
		if *tablePath != "" {
			fatal(fmt.Errorf("-experiment %s and -table are mutually exclusive", *experiment))
		}
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains(rejects, f.Name) {
				fatal(fmt.Errorf("-%s does not apply to -experiment %s (the experiment is fixed so snapshots stay comparable)", f.Name, *experiment))
			}
		})
		if err := runSnapshot(*experiment, *maxRanks, *jsonPath, progress); err != nil {
			fatal(err)
		}
		return
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "json":
			fatal(fmt.Errorf("-json only applies with -experiment regress, scale, contention or drift"))
		case "maxranks":
			fatal(fmt.Errorf("-maxranks only applies with -experiment scale, contention or drift"))
		}
	})

	if *experiment == "overlap" {
		if *tablePath != "" {
			fatal(fmt.Errorf("-experiment overlap and -table are mutually exclusive"))
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "op" {
				fatal(fmt.Errorf("-op does not apply to -experiment overlap (it measures the fixed-size exchange)"))
			}
		})
		algos := *algoList
		if algos == "" {
			algos = "pairwise,nonblocking,bruck,node-aware,multileader-node-aware"
		}
		if err := runOverlap(*machineName, scale, *nodes, *blockSize, algos, *computeFrac, *csvDir, progress); err != nil {
			fatal(err)
		}
		return
	}

	op := core.Op(*opName).Norm()
	if op != core.OpAlltoall && op != core.OpAlltoallv {
		fatal(fmt.Errorf("unknown -op %q (want %s or %s)", *opName, core.OpAlltoall, core.OpAlltoallv))
	}
	if *tablePath == "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "algo":
				fatal(fmt.Errorf("-algo only applies with -table (figures fix their own algorithm series)"))
			case "op":
				fatal(fmt.Errorf("-op only applies with -table (experiments fix their own operation; run -experiment alltoallv for the variable-size scenario)"))
			}
		})
	}
	if *tablePath != "" {
		if *nodes != 0 || *ppn != 0 {
			fatal(fmt.Errorf("-table runs at the table's own world shape; -nodes/-ppn do not apply (retune with a2atune for a different world)"))
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "experiment" {
				fatal(fmt.Errorf("-experiment and -table are mutually exclusive (a table benchmark is its own experiment)"))
			}
		})
		algos := *algoList
		if algos == "" {
			algos = "tuned,bruck,node-aware,multileader-node-aware,system-mpi"
			if op == core.OpAlltoallv {
				algos = "tuned,pairwise,nonblocking,node-aware,locality-aware"
			}
		}
		if err := runTable(*tablePath, op, algos, scale, *csvDir, *plot, progress); err != nil {
			fatal(err)
		}
		return
	}

	ids := strings.Split(*experiment, ",")
	if *experiment == "all" {
		ids = []string{"table1"}
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
		ids = append(ids, "headline")
	}
	for _, id := range ids {
		if err := runOne(id, scale, *nodes, *csvDir, *plot, progress); err != nil {
			fatal(err)
		}
	}
}

func scaleByName(name string) (bench.Scale, error) {
	switch name {
	case "quick":
		return bench.Quick(), nil
	case "full":
		return bench.Full(), nil
	}
	return bench.Scale{}, fmt.Errorf("unknown scale %q (quick or full)", name)
}

func runOne(id string, scale bench.Scale, nodeOverride int, csvDir string, plot bool, progress func(string)) error {
	switch id {
	case "table1":
		return bench.FormatTable1(os.Stdout)
	case "headline":
		return runHeadline(scale, nodeOverride, progress)
	}
	exp, err := bench.Lookup(id)
	if err != nil {
		return err
	}
	if nodeOverride > 0 {
		exp.Nodes = nodeOverride
	}
	t, err := bench.RunExperiment(exp, scale, progress)
	if err != nil {
		return err
	}
	return emit(t, csvDir, plot)
}

// runTable benchmarks the tuned dispatcher of an a2atune table against
// static algorithms. The sweep runs at the table's world shape (machine,
// nodes, ppn) and operation over the table's size grid; -scale only sets
// repetitions.
func runTable(path string, op core.Op, algoList string, scale bench.Scale, csvDir string, plot bool, progress func(string)) error {
	table, err := autotune.Load(path)
	if err != nil {
		return err
	}
	if table.Op.Norm() != op {
		return fmt.Errorf("table %s was tuned for %s, but -op is %s (pass -op %s, or retune with a2atune -op %s)",
			path, table.Op.Norm(), op, table.Op.Norm(), op)
	}
	// Fail before the sweep if the current machine model cannot host the
	// tuned world (RunExperiment would silently clamp ppn to the model's
	// core count).
	machine, err := netmodel.ByName(table.Machine)
	if err != nil {
		return err
	}
	if cores := machine.Node.CoresPerNode(); table.PPN > cores {
		return fmt.Errorf("table tuned for %d ranks/node, %s nodes have %d cores", table.PPN, table.Machine, cores)
	}
	exp := bench.Experiment{
		ID:      "tuned-" + string(op),
		Title:   fmt.Sprintf("Tuned %s dispatcher (%s) vs static algorithms", op, filepath.Base(path)),
		Machine: table.Machine,
		Op:      op,
		XAxis:   bench.XSize,
		Nodes:   table.Nodes,
		Expectation: "the tuned line tracks the lower envelope of the static lines " +
			"(equal to the per-size winner, modulo simulation noise)",
	}
	for _, e := range table.Entries {
		exp.Xs = append(exp.Xs, e.Size)
	}
	for _, name := range strings.Split(algoList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s := bench.Series{Label: name, Algo: name}
		switch name {
		case "tuned":
			s.Opts = table.Options()
		case "locality-aware":
			// State the default group/leader sizes explicitly so the bench
			// harness can clamp them to a divisor of the table's PPN
			// (core's withDefaults would otherwise hard-fail on worlds
			// where 4 does not divide ppn).
			s.Opts.PPG = 4
		case "multileader", "multileader-node-aware":
			s.Opts.PPL = 4
		}
		exp.Series = append(exp.Series, s)
	}
	if len(exp.Series) == 0 {
		return fmt.Errorf("no algorithms in -algo %q", algoList)
	}
	// Pin the sweep to the tuned world: the table's winners are only valid
	// at the shape they were tuned for.
	scale.NodeCap, scale.PPN, scale.SizeStride = 0, table.PPN, 1
	t, err := bench.RunExperiment(exp, scale, progress)
	if err != nil {
		return err
	}
	return emit(t, csvDir, plot)
}

// snapshot is the output of an experiment with a committed BENCH_*.json
// snapshot: a fixed sweep that prints a report and can persist itself.
type snapshot interface {
	Format(w io.Writer) error
	Save(path string) error
}

// figureFlags shape a figure or table run; no snapshot experiment takes
// them.
var figureFlags = []string{"op", "algo", "scale", "nodes", "ppn", "runs", "machine", "computefrac", "block"}

// snapshotRejects maps each experiment with a committed snapshot to the
// flags it rejects. The regression sweep's world takes no -maxranks cap.
var snapshotRejects = map[string][]string{
	"regress":    append(slices.Clip(figureFlags), "maxranks"),
	"scale":      figureFlags,
	"contention": figureFlags,
	"drift":      figureFlags,
}

// runSnapshot runs a snapshot experiment (drift, or one of bench's
// sweeps), prints its report and, with a non-empty jsonPath, persists the
// machine-readable snapshot there.
func runSnapshot(id string, maxRanks int, jsonPath string, progress func(string)) error {
	var s snapshot
	var err error
	if id == "drift" {
		s, err = bench.RunDrift(maxRanks, progress)
	} else {
		s, err = bench.RunSweep(id, maxRanks, progress)
	}
	if err != nil {
		return err
	}
	if err := s.Format(os.Stdout); err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	if err := s.Save(jsonPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	return nil
}

// runOverlap measures the nonblocking-overlap efficiency
// (hidden-communication fraction) of each algorithm under the simulator:
// a Start / Compute / Wait sequence versus the blocking exchange plus the
// same compute.
func runOverlap(machine string, scale bench.Scale, nodes, block int, algoList string, frac float64, csvDir string, progress func(string)) error {
	t, err := bench.RunOverlap(machine, scale, nodes, block, strings.Split(algoList, ","), frac, progress)
	if err != nil {
		return err
	}
	if err := t.Format(os.Stdout); err != nil {
		return err
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(csvDir, "overlap_"+scale.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// emit prints a completed table and optionally plots and CSV-dumps it.
func emit(t *bench.Table, csvDir string, plot bool) error {
	if err := t.Format(os.Stdout); err != nil {
		return err
	}
	if plot {
		if err := t.Plot(os.Stdout, 18); err != nil {
			return err
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(csvDir, t.Exp.ID+"_"+t.Scale.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// runHeadline reproduces the abstract's claim: "up to 3x speedup over
// system MPI at 32 nodes", derived from the all-algorithms comparison.
func runHeadline(scale bench.Scale, nodeOverride int, progress func(string)) error {
	exp, err := bench.Lookup("fig10")
	if err != nil {
		return err
	}
	if nodeOverride > 0 {
		exp.Nodes = nodeOverride
	}
	t, err := bench.RunExperiment(exp, scale, progress)
	if err != nil {
		return err
	}
	sp, atX, vs := bench.Headline(t)
	fmt.Printf("headline — max speedup over System MPI at %d nodes (%s scale): %.2fx (%s at %d B)\n",
		t.Nodes, scale.Name, sp, vs, atX)
	fmt.Println("paper claim: up to 3x over system MPI at 32 nodes")
	fmt.Println()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alltoallbench:", err)
	os.Exit(1)
}
