// Dynamic algorithm selection — the paper's future-work direction of
// picking the optimal all-to-all "for a given computer, system MPI,
// process count, and data size" — as a full produce -> persist -> dispatch
// cycle. The machine model evaluates every candidate per message size and
// bakes the winners into a dispatch table (offline tuning); the table is
// saved to JSON and loaded back (what cmd/a2atune -o and a deployed job
// do on opposite sides of a filesystem); finally a simulated cluster
// constructs the "tuned" meta-algorithm from the loaded table and
// dispatches each block size to its tabled winner, failing if a probe
// goes anywhere else.
//
// The -op flag tunes and dispatches either collective through the same
// unified persistent-operation API: alltoall (fixed-size) or alltoallv
// (variable-size, Zipf-skewed counts).
//
// With -predict the produce step runs the model-guided sweep instead of
// the exhaustive one: every candidate is measured at a few probe sizes,
// power-law cost models are fitted (internal/costmodel), and the
// remaining sizes only measure candidates predicted competitive — same
// winners, a fraction of the simulations.
//
//	go run ./examples/autotune [-machine Dane] [-nodes 8] [-ppn 16] [-op alltoallv] [-predict] [-o table.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"alltoallx/internal/autotune"
	"alltoallx/internal/bench"
	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/sim"
)

func main() {
	var (
		machine = flag.String("machine", "Dane", "machine model")
		nodes   = flag.Int("nodes", 8, "node count")
		ppn     = flag.Int("ppn", 16, "ranks per node")
		opName  = flag.String("op", "alltoall", "collective to tune: alltoall or alltoallv")
		predict = flag.Bool("predict", false, "model-guided sweep: fit cost models at probe sizes, measure only predicted contenders")
		out     = flag.String("o", "", "table path (empty = a temp file, removed on exit)")
	)
	flag.Parse()
	// run, not main, owns the logic: log.Fatal would skip the deferred
	// temp-file cleanup.
	if err := run(*machine, *nodes, *ppn, core.Op(*opName), *predict, *out); err != nil {
		log.Fatal(err)
	}
}

func run(machineName string, nodes, ppn int, op core.Op, predict bool, out string) error {
	m, err := netmodel.ByName(machineName)
	if err != nil {
		return err
	}

	// 1. Produce: rank every candidate at every size on the machine model.
	sizes := autotune.SizeGrid(4, 4096)
	cands := autotune.DefaultCandidates(op, nodes, ppn)
	fmt.Printf("tuning %s on %s (%d nodes x %d ranks): %d candidates x %d sizes...\n",
		op.Norm(), m.Name, nodes, ppn, len(cands), len(sizes))
	var table *autotune.Table
	if predict {
		pred, err := autotune.BuildTablePredictive(m, op, nodes, ppn, sizes, cands, 2, 1, nil)
		if err != nil {
			return err
		}
		table = pred.Table
		fmt.Printf("predictive sweep: %d of %d measurements (%d pruned by fitted cost models)\n",
			pred.Measured, pred.Full, pred.Pruned())
		for _, x := range pred.Models.Crossovers(float64(sizes[0]), float64(sizes[len(sizes)-1])) {
			fmt.Printf("  predicted crossover: %s -> %s near %d B\n", x.A, x.B, int(x.X))
		}
	} else {
		table, err = autotune.BuildTable(m, op, nodes, ppn, sizes, cands, 2, 1, nil)
		if err != nil {
			return err
		}
	}

	// 2. Persist: save the table, then load it back as a deployed job would.
	path := out
	if path == "" {
		f, err := os.CreateTemp("", "a2a-table-*.json")
		if err != nil {
			return err
		}
		f.Close()
		path = f.Name()
		defer os.Remove(path)
	}
	if err := table.Save(path); err != nil {
		return err
	}
	loaded, err := autotune.Load(path)
	if err != nil {
		return err
	}
	if err := loaded.CheckWorld(m.Name, nodes, ppn); err != nil {
		return err
	}
	fmt.Printf("\ndispatch table (version %d, saved to %s):\n", loaded.Version, path)
	for _, e := range loaded.Entries {
		fmt.Printf("  <= %5d B : %-28s (predicted %.3e s)\n", e.Size, e.Name, e.Seconds)
	}

	// 3. Dispatch: a simulated cluster runs the "tuned" meta-algorithm
	// built from the loaded table; each exchange goes to the tabled winner.
	fmt.Println("\ndispatching on a simulated cluster:")
	probes := []int{16, 512, 4096}
	picked := make([]string, len(probes))
	timed := make([]float64, len(probes))
	cfg := sim.ClusterConfig{Model: m, Nodes: nodes, PPN: ppn, Seed: 1}
	_, err = sim.RunCluster(cfg, func(c comm.Comm) error {
		if op.Norm() == core.OpAlltoallv {
			return dispatchV(c, loaded, probes, picked, timed)
		}
		a, err := core.New("tuned", c, probes[len(probes)-1], loaded.Options())
		if err != nil {
			return err
		}
		for i, block := range probes {
			send := comm.Virtual(c.Size() * block)
			recv := comm.Virtual(c.Size() * block)
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := c.Now()
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
			if c.Rank() == 0 {
				timed[i] = c.Now() - t0
				picked[i] = a.(interface{ Picked() string }).Picked()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, block := range probes {
		want := loaded.Pick(block).Name
		fmt.Printf("  %5d B -> %-28s %.3e s (table predicted %s)\n", block, picked[i], timed[i], want)
		if picked[i] != want {
			return fmt.Errorf("%d B went to %s, but the table names %s", block, picked[i], want)
		}
	}
	return nil
}

// dispatchV probes the tuned alltoallv dispatcher with the benchmark's
// Zipf-skewed count matrices, one per mean block size.
func dispatchV(c comm.Comm, table *autotune.Table, probes []int, picked []string, timed []float64) error {
	p, r := c.Size(), c.Rank()
	// maxTotal is collective: the largest send/recv total of ANY rank over
	// every probed count matrix (hot columns can exceed p*mean).
	maxTotal := 1
	for _, block := range probes {
		if t := bench.MaxTotal(bench.ZipfCounts(p, block)); t > maxTotal {
			maxTotal = t
		}
	}
	a, err := core.NewV("tuned", c, maxTotal, table.Options())
	if err != nil {
		return err
	}
	for i, block := range probes {
		counts := bench.ZipfCounts(p, block)
		sc := counts[r]
		rc := make([]int, p)
		for s := 0; s < p; s++ {
			rc[s] = counts[s][r]
		}
		sdispls, sTotal := core.DisplsFromCounts(sc)
		rdispls, rTotal := core.DisplsFromCounts(rc)
		if err := c.Barrier(); err != nil {
			return err
		}
		t0 := c.Now()
		if err := a.Alltoallv(comm.Virtual(sTotal), sc, sdispls, comm.Virtual(rTotal), rc, rdispls); err != nil {
			return err
		}
		if r == 0 {
			timed[i] = c.Now() - t0
			picked[i] = a.(interface{ Picked() string }).Picked()
		}
	}
	return nil
}
