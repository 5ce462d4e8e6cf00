// Benchmarks regenerating each paper table/figure at reduced scale, plus
// wall-clock microbenchmarks of the live runtime and model ablations.
//
// Every BenchmarkFigNN runs one representative configuration of that
// figure's experiment through the discrete-event simulator and reports the
// simulated collective time as "sim-sec/op" (the figures' y-axis). Full
// sweeps at paper scale are produced by cmd/alltoallbench -scale full, as
// README's "Reproducing the paper" shows; no full-scale results are kept
// in the repository.
package alltoallx_test

import (
	"fmt"
	"io"
	"testing"

	"alltoallx"
	"alltoallx/internal/bench"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/testutil"
	"alltoallx/internal/trace"
)

// benchScale is small enough for a benchmark iteration to finish in tens
// of milliseconds while keeping the node-aware structure intact.
func benchScale() bench.Scale {
	return bench.Scale{Name: "bench", NodeCap: 4, PPN: 8, Runs: 1, SizeStride: 100}
}

// reportExperiment runs one experiment at bench scale and reports the
// simulated seconds of the last series at the largest swept x.
func reportExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		t, err := bench.RunExperiment(exp, benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		row := t.Values[len(t.Values)-1]
		last = row[len(row)-1]
	}
	b.ReportMetric(last, "sim-sec/op")
}

func BenchmarkTable1Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.FormatTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07HierarchicalVsMultileader(b *testing.B) { reportExperiment(b, "fig7") }
func BenchmarkFig08NodeVsLocalityAware(b *testing.B)       { reportExperiment(b, "fig8") }
func BenchmarkFig09MultileaderLocality(b *testing.B)       { reportExperiment(b, "fig9") }
func BenchmarkFig10AllAlgorithms(b *testing.B)             { reportExperiment(b, "fig10") }
func BenchmarkFig11NodeScaling4B(b *testing.B)             { reportExperiment(b, "fig11") }
func BenchmarkFig12NodeScaling4096B(b *testing.B)          { reportExperiment(b, "fig12") }
func BenchmarkFig13HierarchicalBreakdown(b *testing.B)     { reportExperiment(b, "fig13") }
func BenchmarkFig14NodeAwareBreakdown(b *testing.B)        { reportExperiment(b, "fig14") }
func BenchmarkFig15NodeAwareScalingBreakdown(b *testing.B) { reportExperiment(b, "fig15") }
func BenchmarkFig16LocalityBreakdown(b *testing.B)         { reportExperiment(b, "fig16") }
func BenchmarkFig17Amber(b *testing.B)                     { reportExperiment(b, "fig17") }
func BenchmarkFig18Tuolomne(b *testing.B)                  { reportExperiment(b, "fig18") }

// BenchmarkHeadlineSpeedup reports the paper's headline metric — best
// speedup over system MPI — from fig10 at quick scale (8 nodes x 16
// ranks, the README's 1.97x). At bench scale system MPI wins every point,
// so the metric would read a slowdown.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	exp, err := bench.Lookup("fig10")
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		t, err := bench.RunExperiment(exp, bench.Quick(), nil)
		if err != nil {
			b.Fatal(err)
		}
		speedup, _, _ = bench.Headline(t)
	}
	if speedup <= 1 {
		b.Fatalf("no algorithm beats system MPI (best speedup %.4f)", speedup)
	}
	b.ReportMetric(speedup, "speedup-vs-sysmpi")
}

// BenchmarkSimPoint measures single simulated configurations (one per
// algorithm) at a moderate scale: the cost of the simulator itself.
func BenchmarkSimPoint(b *testing.B) {
	for _, algo := range []string{"bruck", "node-aware", "locality-aware", "multileader-node-aware"} {
		b.Run(algo, func(b *testing.B) {
			m := netmodel.Dane()
			var sec float64
			for i := 0; i < b.N; i++ {
				pt, err := bench.Measure(bench.Config{
					Machine: m, Nodes: 8, PPN: 16, Algo: algo,
					Opts: core.Options{PPL: 4, PPG: 4}, Block: 256, Runs: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				sec = pt.Seconds
			}
			b.ReportMetric(sec, "sim-sec/op")
		})
	}
}

// BenchmarkLiveAlltoall measures real wall-clock all-to-all exchanges on
// the in-process runtime (32 goroutine ranks, 256 B blocks). Node-aware
// and locality-aware also run 16 KiB blocks ("-16KiB"), which go by
// rendezvous above the 8 KiB eager limit and make their repacks show.
func BenchmarkLiveAlltoall(b *testing.B) {
	for _, algo := range []string{"pairwise", "nonblocking", "batched", "bruck", "hierarchical", "node-aware", "locality-aware", "multileader-node-aware"} {
		b.Run(algo, func(b *testing.B) { liveAlltoall(b, algo, 256) })
	}
	for _, algo := range []string{"node-aware", "locality-aware"} {
		b.Run(algo+"-16KiB", func(b *testing.B) { liveAlltoall(b, algo, 16<<10) })
	}
}

// liveAlltoall times b.N exchanges alone: rank 0 resets the timer once
// every rank has built its operation and buffers and run one untimed
// exchange (which builds its staging), and stops it once every rank has
// finished, so ns/op and B/op do not depend on -benchtime.
func liveAlltoall(b *testing.B, algo string, block int) {
	spec := alltoallx.NodeSpec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	mapping, err := alltoallx.NewMapping(spec, 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	err = alltoallx.RunLive(alltoallx.LiveConfig{Mapping: mapping}, func(c alltoallx.Comm) error {
		a, err := alltoallx.New(algo, c, block, alltoallx.Options{PPL: 4, PPG: 4})
		if err != nil {
			return err
		}
		p := c.Size()
		send := alltoallx.Alloc(p * block)
		recv := alltoallx.Alloc(p * block)
		testutil.FillAlltoall(send, c.Rank(), p, block)
		if err := a.Alltoall(send, recv, block); err != nil {
			return err
		}
		if err := timerBarrier(c, b.ResetTimer); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
		}
		if err := timerBarrier(c, b.StopTimer); err != nil {
			return err
		}
		return testutil.CheckAlltoall(recv, c.Rank(), p, block)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(mapping.Size() * block))
}

// timerBarrier runs timer on rank 0 between two barriers, so no rank
// passes it before every rank has reached it and the timer has run.
func timerBarrier(c alltoallx.Comm, timer func()) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		timer()
	}
	return c.Barrier()
}

// ablationPoint measures an algorithm at 4096 B under a mutated machine
// model, reporting simulated seconds: each ablation switches off one of
// the effects internal/netmodel's package comment lists.
func ablationPoint(b *testing.B, algo string, opts core.Options, mutate func(*netmodel.Params)) {
	b.Helper()
	m := netmodel.Dane()
	if mutate != nil {
		mutate(&m)
	}
	var sec float64
	for i := 0; i < b.N; i++ {
		pt, err := bench.Measure(bench.Config{
			Machine: m, Nodes: 8, PPN: 16, Algo: algo, Opts: opts, Block: 4096, Runs: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		sec = pt.Seconds
	}
	b.ReportMetric(sec, "sim-sec/op")
}

func BenchmarkAblationInterleavePenalty(b *testing.B) {
	b.Run("on", func(b *testing.B) { ablationPoint(b, "node-aware", core.Options{}, nil) })
	b.Run("off", func(b *testing.B) {
		ablationPoint(b, "node-aware", core.Options{}, func(p *netmodel.Params) { p.InterleavePenalty = 0 })
	})
}

func BenchmarkAblationEagerThreshold(b *testing.B) {
	b.Run("8KiB", func(b *testing.B) { ablationPoint(b, "node-aware", core.Options{}, nil) })
	b.Run("always-rendezvous", func(b *testing.B) {
		ablationPoint(b, "node-aware", core.Options{}, func(p *netmodel.Params) { p.EagerMax = 0 })
	})
	b.Run("always-eager", func(b *testing.B) {
		ablationPoint(b, "node-aware", core.Options{}, func(p *netmodel.Params) { p.EagerMax = 1 << 30 })
	})
}

func BenchmarkAblationQueueSearch(b *testing.B) {
	b.Run("on", func(b *testing.B) { ablationPoint(b, "nonblocking", core.Options{}, nil) })
	b.Run("off", func(b *testing.B) {
		ablationPoint(b, "nonblocking", core.Options{}, func(p *netmodel.Params) { p.MatchCost = 0 })
	})
}

func BenchmarkAblationBatchWindow(b *testing.B) {
	for _, w := range []int{4, 32, 128} {
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			ablationPoint(b, "batched", core.Options{BatchWindow: w}, nil)
		})
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	b.Run("on", func(b *testing.B) { ablationPoint(b, "node-aware", core.Options{}, nil) })
	b.Run("off", func(b *testing.B) {
		ablationPoint(b, "node-aware", core.Options{}, func(p *netmodel.Params) {
			p.NoiseSigma, p.SpikeProb = 0, 0
		})
	})
}

var _ = trace.PhaseTotal
