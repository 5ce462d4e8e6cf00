// Command a2asim runs a single simulated all-to-all configuration and
// prints its timing, phase breakdown and simulator statistics — the
// single-point explorer behind the figures that cmd/alltoallbench sweeps.
//
// Examples:
//
//	go run ./cmd/a2asim -machine Dane -nodes 32 -algo multileader-node-aware -ppl 4 -block 4
//	go run ./cmd/a2asim -op alltoallv -algo node-aware -block 512
//	go run ./cmd/a2asim -table table.json -block 512
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"alltoallx/internal/autotune"
	"alltoallx/internal/bench"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/schedreg"
	"alltoallx/internal/trace"
)

func main() {
	var (
		machine   = flag.String("machine", "Dane", "machine model: "+strings.Join(netmodel.Names(), ", "))
		nodes     = flag.Int("nodes", 8, "node count")
		ppn       = flag.Int("ppn", 0, "ranks per node (0 = all cores)")
		opName    = flag.String("op", "alltoall", "collective: alltoall or alltoallv (block = mean bytes per peer)")
		algo      = flag.String("algo", "node-aware", "algorithm name")
		inner     = flag.String("inner", "pairwise", "inner exchange: pairwise, nonblocking, bruck")
		ppl       = flag.Int("ppl", 4, "processes per leader")
		ppg       = flag.Int("ppg", 4, "processes per group")
		block     = flag.Int("block", 4096, "bytes per rank pair")
		runs      = flag.Int("runs", 3, "seeded runs (minimum reported)")
		seed      = flag.Int64("seed", 0, "base noise seed")
		tablePath = flag.String("table", "", "autotune dispatch table (JSON); runs the tuned dispatcher at the table's world")
		schedRoot = flag.String("schedreg", "", "schedule-registry directory: resolve sched:* programs through it (each world proved once across processes)")
	)
	flag.Parse()
	fetch, err := schedreg.FetcherFor(*schedRoot)
	if err != nil {
		fatal(err)
	}
	core.SetSchedFetcher(fetch)

	op := core.Op(*opName).Norm()
	if op != core.OpAlltoall && op != core.OpAlltoallv {
		fatal(fmt.Errorf("unknown -op %q (want %s or %s)", *opName, core.OpAlltoall, core.OpAlltoallv))
	}
	var m netmodel.Params
	var p int
	opts := core.Options{Inner: core.Inner(*inner), PPL: *ppl, PPG: *ppg}
	if *tablePath != "" {
		// The table fully determines the run: machine, world shape,
		// algorithm, and per-size options all come from it.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "machine", "nodes", "ppn":
				fatal(fmt.Errorf("-%s does not apply with -table: the table carries its own world shape (retune with a2atune for another)", f.Name))
			case "inner", "ppl", "ppg":
				fatal(fmt.Errorf("-%s does not apply with -table: the table's per-size winners carry their own options", f.Name))
			case "op":
				fatal(fmt.Errorf("-op does not apply with -table: the table carries its own operation kind"))
			case "algo":
				if *algo != "tuned" {
					fatal(fmt.Errorf("-algo %s conflicts with -table (a table always runs the tuned dispatcher)", *algo))
				}
			}
		})
		table, err := autotune.Load(*tablePath)
		if err != nil {
			fatal(err)
		}
		m, err = netmodel.ByName(table.Machine)
		if err != nil {
			fatal(err)
		}
		*nodes, p = table.Nodes, table.PPN
		*algo = "tuned"
		op = table.Op.Norm()
		opts = table.Options()
	} else {
		if *algo == "tuned" {
			fatal(fmt.Errorf("-algo tuned requires -table (generate one with a2atune -o)"))
		}
		var err error
		m, err = netmodel.ByName(*machine)
		if err != nil {
			fatal(err)
		}
		p = *ppn
		if p == 0 {
			p = m.Node.CoresPerNode()
		}
	}
	cfg := bench.Config{
		Machine: m, Nodes: *nodes, PPN: p,
		Op:    op,
		Algo:  *algo,
		Opts:  opts,
		Block: *block, Runs: *runs, BaseSeed: *seed,
	}
	pt, err := bench.Measure(cfg)
	if err != nil {
		fatal(err)
	}
	how := fmt.Sprintf("inner=%s ppl=%d ppg=%d", *inner, *ppl, *ppg)
	if *tablePath != "" {
		how = "dispatched from " + *tablePath
	}
	fmt.Printf("%s %s on %s: %d nodes x %d ranks, %d B/block (%s)\n",
		op, *algo, m.Name, *nodes, p, *block, how)
	fmt.Printf("  time      %.6e s (min of %d runs)\n", pt.Seconds, *runs)
	for _, ph := range trace.SortedPhases(pt.Phases) {
		fmt.Printf("  phase %-8s %.6e s\n", ph, pt.Phases[ph])
	}
	fmt.Printf("  simulated %d messages, %d events\n", pt.Stats.Messages, pt.Stats.Events)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "a2asim:", err)
	os.Exit(1)
}
