package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"time"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

// The live workload runs the live runtime (one goroutine per rank, real
// bytes) through the tuned dispatcher, on a seeded sequence of blocks on
// both sides of the runtime's eager limit.
const (
	liveNodes  = 4
	livePPN    = 16
	smallBlock = 256
	largeBlock = 16 << 10
	// Exchanges per pass. Large exchanges are ~10x slower and noisier, so
	// the pass leans on small ones; the run pools latencies over passes.
	liveSmall = 48
	liveLarge = 16
)

// liveSpec is the tuned dispatcher's two-bucket spec: bruck for blocks up
// to the eager limit, node-aware above it.
var liveSpec = &core.Dispatch{Entries: []core.DispatchEntry{
	{MaxBlock: runtime.DefaultEagerMax, Algo: "bruck"},
	{MaxBlock: largeBlock, Algo: "node-aware"},
}}

// liveSequence is the seeded block order of one pass.
func liveSequence(seed int64, small, large int) []int {
	seq := make([]int, 0, small+large)
	for i := 0; i < small; i++ {
		seq = append(seq, smallBlock)
	}
	for i := 0; i < large; i++ {
		seq = append(seq, largeBlock)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// liveJob is one runtime.Run of an exchange sequence.
type liveJob struct {
	cell     string
	algo     string
	opts     core.Options
	maxBlock int
	// warm blocks are exchanged during set-up, so lazily built operations
	// (the tuned dispatcher's buckets) exist before timing starts.
	warm []int
	seq  []int
	// counts, when non-nil, wraps each rank's communicator in a counting
	// comm.Comm (one commCounts per rank).
	counts []commCounts
	// wrap, when set, wraps each rank's world communicator first (fault
	// injection in tests).
	wrap func(comm.Comm) comm.Comm
}

// liveResult is what a liveJob measured.
type liveResult struct {
	// setupS and setupWallS are set-up's CPU and wall time. runS is the CPU
	// time of the exchanges, read by rank 0 while every other rank waits
	// at a barrier, so the buffer clears and checks are left out.
	setupS, setupWallS, runS float64
	// lat[i] is exchange i's wall latency: the last rank's finish minus
	// the first rank's start, each stamped right at the exchange.
	lat []float64
	// errs[i] is exchange i's first error or wrong byte (nil if correct).
	errs []error
	// rankBusyS sums every rank's time inside the timed exchanges.
	rankBusyS float64
	// base holds each rank's counters when timing started.
	base []countSnap
}

type countSnap struct{ msgs, bytes, eager, postNs, waitNs int64 }

func (n *commCounts) snap() countSnap {
	return countSnap{n.msgs.Load(), n.bytes.Load(), n.eager.Load(), n.postNs.Load(), n.waitNs.Load()}
}

func liveMapping() (*topo.Mapping, error) {
	dane, err := netmodel.ByName("Dane")
	if err != nil {
		return nil, err
	}
	return topo.NewMapping(dane.Node, liveNodes, livePPN)
}

// run executes the job. Every exchange is bracketed by barriers; the
// receive buffer is cleared before and checked after them, outside the
// timed span. One more barrier on each side fences rank 0's CPU-time
// readings from the clears and checks.
func (j liveJob) run(tr *tracer) (liveResult, error) {
	m, err := liveMapping()
	if err != nil {
		return liveResult{}, err
	}
	p := m.Size()
	starts, ends := make([][]time.Time, len(j.seq)), make([][]time.Time, len(j.seq))
	errs := make([][]error, len(j.seq))
	for i := range j.seq {
		starts[i], ends[i], errs[i] = make([]time.Time, p), make([]time.Time, p), make([]error, p)
	}
	left := make([]time.Time, p)
	var leftOnce sync.Once
	var cpuLeft, runCPU float64
	base := make([]countSnap, p)
	start, cpuStart := time.Now(), cpuSeconds()
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		r := c.Rank()
		if j.wrap != nil {
			c = j.wrap(c)
		}
		if j.counts != nil {
			c = wrapCounting(c, &j.counts[r], runtime.DefaultEagerMax)
		}
		a, err := core.New(j.algo, c, j.maxBlock, j.opts)
		if err != nil {
			return err
		}
		// One send buffer per block size, filled once: the pattern depends
		// only on (source, destination, offset), so refilling would only
		// add unmeasured work to every exchange.
		sends := make(map[int]comm.Buffer)
		for _, b := range append(j.warm, j.seq...) {
			if _, ok := sends[b]; !ok {
				sends[b] = comm.Alloc(p * b)
				testutil.FillAlltoall(sends[b], r, p, b)
			}
		}
		recv := comm.Alloc(p * j.maxBlock)
		for _, b := range j.warm {
			if err := a.Alltoall(sends[b], recv.Slice(0, p*b), b); err != nil {
				return fmt.Errorf("warm-up at %d B: %w", b, err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		left[r] = time.Now()
		leftOnce.Do(func() { cpuLeft = cpuSeconds() })
		if j.counts != nil {
			base[r] = j.counts[r].snap()
		}
		for i, b := range j.seq {
			s, rv := sends[b], recv.Slice(0, p*b)
			clear(rv.Bytes())
			var cpu0 float64
			if err := c.Barrier(); err != nil {
				return err
			}
			if r == 0 {
				cpu0 = cpuSeconds()
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			starts[i][r] = time.Now()
			err := a.Alltoall(s, rv, b)
			ends[i][r] = time.Now()
			if err != nil {
				return fmt.Errorf("exchange %d (%d B): %w", i, b, err)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if r == 0 {
				runCPU += cpuSeconds() - cpu0
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			errs[i][r] = testutil.CheckAlltoall(rv, r, p, b)
		}
		return nil
	})
	end := time.Now()
	if err != nil {
		return liveResult{}, fmt.Errorf("%s: %w", j.cell, err)
	}
	setupEnd := left[0]
	for _, t := range left {
		if t.Before(setupEnd) {
			setupEnd = t
		}
	}
	res := liveResult{setupS: cpuLeft - cpuStart, setupWallS: setupEnd.Sub(start).Seconds(), runS: runCPU, base: base}
	root := tr.add("runtime.Run", j.cell, -1, start, end)
	tr.add("core.New", j.cell, root, start, setupEnd)
	for i, b := range j.seq {
		first, last := starts[i][0], ends[i][0]
		var bad error
		for r := 0; r < p; r++ {
			if starts[i][r].Before(first) {
				first = starts[i][r]
			}
			if ends[i][r].After(last) {
				last = ends[i][r]
			}
			res.rankBusyS += ends[i][r].Sub(starts[i][r]).Seconds()
			if bad == nil && errs[i][r] != nil {
				bad = fmt.Errorf("%s exchange %d (%d B): %w", j.cell, i, b, errs[i][r])
			}
		}
		tr.add("core.Alltoall", j.cell, root, first, last)
		res.lat = append(res.lat, last.Sub(first).Seconds())
		res.errs = append(res.errs, bad)
	}
	return res, nil
}

// record counts each exchange's outcome and returns the latencies of the
// exchanges of one block size.
func (res liveResult) record(p *pass, seq []int, block int) []float64 {
	var out []float64
	for i, b := range seq {
		if b == block {
			p.attempt(res.errs[i])
			out = append(out, res.lat[i])
		}
	}
	return out
}

func runLive(p *pass) error {
	j := liveJob{
		cell: "live/tuned", algo: "tuned", opts: core.Options{Table: liveSpec}, maxBlock: largeBlock,
		warm: []int{smallBlock, largeBlock}, seq: liveSequence(p.seed, liveSmall, liveLarge),
	}
	if p.traced() {
		j.counts = make([]commCounts, liveNodes*livePPN)
	}
	res, err := j.run(p.tr)
	if err != nil {
		p.attempt(err)
		return nil
	}
	p.res.SetupS, p.res.SetupWallS, p.res.RunS = res.setupS, res.setupWallS, res.runS
	p.res.Small = res.record(p, j.seq, smallBlock)
	p.res.Large = res.record(p, j.seq, largeBlock)
	for _, l := range res.lat {
		p.res.RunWallS += l
	}
	if p.traced() {
		return liveLayers(p, j, res)
	}
	return nil
}

// liveLayers derives the runtime metrics from the counting communicators
// and runs the two comparison jobs of a traced pass: the static winner at
// the small size (the tuned dispatcher's overhead) and the large exchanges
// at GOMAXPROCS=1 (the single-threaded baseline).
func liveLayers(p *pass, j liveJob, res liveResult) error {
	var tot countSnap
	for r := range j.counts {
		now, b := j.counts[r].snap(), res.base[r]
		tot.msgs += now.msgs - b.msgs
		tot.bytes += now.bytes - b.bytes
		tot.eager += now.eager - b.eager
		tot.postNs += now.postNs - b.postNs
		tot.waitNs += now.waitNs - b.waitNs
	}
	n := float64(len(j.seq))
	p.layer("runtime.msgs", float64(tot.msgs)/n)
	p.layer("runtime.bytes", float64(tot.bytes)/n)
	if tot.msgs > 0 {
		p.layer("runtime.eager_frac", float64(tot.eager)/float64(tot.msgs))
	}
	p.layer("runtime.post_s", float64(tot.postNs)/1e9/n)
	p.layer("runtime.wait_s", float64(tot.waitNs)/1e9/n)
	if res.rankBusyS > 0 {
		p.layer("runtime.wait_frac", float64(tot.waitNs)/1e9/res.rankBusyS)
	}

	// The tuned dispatcher's overhead: the same small-only sequence through
	// tuned and through its small bucket's algorithm, both without the
	// counting wrapper and with the same maxBlock, so only dispatch differs.
	small := liveSequence(p.seed, liveSmall/2, 0)
	tuned := liveJob{
		cell: "live/tuned-small", algo: "tuned", opts: j.opts, maxBlock: smallBlock,
		warm: []int{smallBlock}, seq: small,
	}
	static := liveJob{
		cell: "live/bruck", algo: "bruck", maxBlock: smallBlock,
		warm: []int{smallBlock}, seq: small,
	}
	tres, terr := tuned.run(p.tr)
	p.attempt(terr)
	sres, serr := static.run(p.tr)
	p.attempt(serr)
	if terr == nil && serr == nil {
		tLat := tres.record(p, small, smallBlock)
		sLat := sres.record(p, small, smallBlock)
		p.layer("core.tuned.overhead_s", median(tLat)-median(sLat))
	}

	serial := liveJob{
		cell: "live/tuned-serial", algo: "tuned", opts: j.opts, maxBlock: largeBlock,
		warm: j.warm, seq: liveSequence(p.seed, 0, liveLarge/2),
	}
	prev := goruntime.GOMAXPROCS(1)
	sres, err := serial.run(p.tr)
	goruntime.GOMAXPROCS(prev)
	if err != nil {
		p.attempt(err)
	} else {
		p.layer("runtime.serial_p50_s", median(sres.record(p, serial.seq, largeBlock)))
	}
	return nil
}
