package main

import (
	"fmt"

	"alltoallx/internal/bench"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/sim"
	"alltoallx/internal/trace"
)

// The paper workload is the source paper's headline configuration: Dane,
// 32 nodes x 112 ranks, the analytic network model, virtual buffers and
// 256 B blocks (Dane's largest bruck size for system MPI; at 1 KiB the
// nonblocking branch does not fit in 7 GB).
const (
	paperNodes = 32
	paperPPN   = 112
	paperBlock = 256
)

// paperAlgos are the cells of one pass: the vendor baseline and the
// paper's two best algorithms.
var paperAlgos = []string{"system-mpi", "node-aware", "multileader-node-aware"}

// paperPhases are the trace phases reported per algorithm.
var paperPhases = []trace.Phase{trace.PhaseGather, trace.PhaseScatter, trace.PhaseInter,
	trace.PhaseIntra, trace.PhaseRepack, trace.PhaseTotal}

func paperOpts(algo string) core.Options {
	if algo == "multileader-node-aware" {
		return core.Options{PPL: 4}
	}
	return core.Options{}
}

func paperCell(algo string, seed int64) (simCell, error) {
	m, err := netmodel.ByName("Dane")
	if err != nil {
		return simCell{}, err
	}
	return simCell{
		name:  "paper/" + algo,
		algo:  algo,
		opts:  paperOpts(algo),
		cc:    sim.ClusterConfig{Model: m, Nodes: paperNodes, PPN: paperPPN, Seed: seed},
		block: paperBlock,
	}, nil
}

func runPaper(p *pass) error {
	var stats []sim.Stats
	modeled := make(map[string]float64)
	for _, algo := range paperAlgos {
		sc, err := paperCell(algo, p.seed)
		if err != nil {
			return err
		}
		res, err := sc.run(p.tr)
		p.attempt(err)
		if err != nil {
			continue
		}
		p.res.add(res)
		modeled[algo] = res.modeledS
		stats = append(stats, res.stats)
		if p.traced() {
			p.layer("core.setup_s."+algo, res.setupS)
			p.layer("core.run_s."+algo, res.runS)
			for _, ph := range paperPhases {
				p.layer(fmt.Sprintf("modeled.%s.%s_s", algo, ph), res.phases[ph])
			}
		}
	}
	total := 0.0
	for _, algo := range paperAlgos {
		total += modeled[algo]
		p.value("modeled_s."+algo, modeled[algo])
	}
	p.value("modeled_s", total)
	if best := min(modeled["node-aware"], modeled["multileader-node-aware"]); best > 0 {
		p.value("headline_speedup", modeled["system-mpi"]/best)
	}
	if p.traced() {
		simLayers(p, stats)
	}
	return nil
}

// simLayers records the simulator's counters over a pass's cells. The time
// per event is the pass's run wall time, set-up excluded.
func simLayers(p *pass, stats []sim.Stats) {
	var ev, msgs uint64
	for _, s := range stats {
		ev += s.Events
		msgs += s.Messages
	}
	p.layer("sim.events", float64(ev))
	p.layer("sim.messages", float64(msgs))
	if ev > 0 {
		p.layer("sim.ns_per_event", p.res.RunS*1e9/float64(ev))
	}
}

// verifyPaper checks that the instrumented cell leaves the model unchanged:
// its modeled seconds must equal bench.Measure's for the same Config and
// seed exactly. The first passes of a run re-measure one cell each, so a
// run of three or more passes checks every cell; later passes skip the
// check, which costs as much as a cell, and fit more passes in the run.
func verifyPaper(p *pass) error {
	if p.index >= len(paperAlgos) {
		return errSkipped
	}
	algo := paperAlgos[p.index]
	got, ok := p.res.Values["modeled_s."+algo]
	if !ok {
		return fmt.Errorf("paper/%s: no modeled time to check", algo)
	}
	sc, err := paperCell(algo, p.seed)
	if err != nil {
		return err
	}
	pt, err := bench.Measure(bench.Config{
		Machine: sc.cc.Model, Nodes: paperNodes, PPN: paperPPN,
		Algo: algo, Opts: sc.opts, Block: paperBlock, Runs: 1, BaseSeed: p.seed - 1,
	})
	if err != nil {
		return fmt.Errorf("paper/%s: bench.Measure: %w", algo, err)
	}
	if pt.Seconds != got {
		return fmt.Errorf("paper/%s: modeled %.17g s, bench.Measure %.17g s", algo, got, pt.Seconds)
	}
	return nil
}
