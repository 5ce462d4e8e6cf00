package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"alltoallx/internal/core"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/sched"
	"alltoallx/internal/schedreg"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
)

// The direct-connect workload runs Basu et al.'s direct-connect schedules
// on their own fabrics under the flow-level contention model, resolving
// their rank programs through a fresh schedule registry, then re-resolves
// every program through a second registry handle as a restarted job would.
// A loop-coded pairwise exchange on the ring fabric adds flow-link
// admission at twice the rank count.
const (
	dcNodes    = 16
	dcPPN      = 16 // 256 ranks: past the 128-rank slicing threshold
	dcRingPPN  = 32
	dcPairwise = "pairwise"
	// The schedule cells move real bytes, and the executor's memory grows
	// with the block (at 256 B a pass peaked at 5.9 GB resident), so their
	// blocks are small. The ring cell is virtual; at 4 KiB flow-link
	// admission roughly triples its event count over the analytic model.
	dcBlock   = 16
	ringBlock = 4 << 10
	// dcReps exchanges are timed per cell, so a run averages over more
	// of the seed's noise draws.
	dcReps = 2
)

// dcSchedules are the schedule generators run, each on the fabric of the
// same name.
var dcSchedules = []string{"torus", "hypercube"}

func runDirect(p *pass) error {
	dane, err := netmodel.ByName("Dane")
	if err != nil {
		return err
	}
	m, err := topo.NewMapping(dane.Node, dcNodes, dcPPN)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.work, "registry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg, err := schedreg.Open(dir)
	if err != nil {
		return err
	}

	// Construction of the schedule cells resolves rank programs through
	// the registry; the hook times each resolution (the cold fill).
	fetch := schedreg.RegistryFetcher(reg)
	var fill struct {
		sync.Mutex
		s float64 // guarded by Mutex
	}
	core.SetSchedFetcher(func(gen string, n int, mp *topo.Mapping, rank int) (*sched.RankProgram, error) {
		t0 := time.Now()
		rp, err := fetch(gen, n, mp, rank)
		t1 := time.Now()
		p.tr.add("schedreg.Registry.GetOrCompile", "direct-connect/sched:"+gen, -1, t0, t1)
		fill.Lock()
		fill.s += t1.Sub(t0).Seconds()
		fill.Unlock()
		return rp, err
	})
	defer core.SetSchedFetcher(nil)

	var stats []sim.Stats
	var modeled float64
	schedRunS := 0.0
	add := func(res cellResult) {
		p.res.add(res)
		modeled += res.modeledS
		stats = append(stats, res.stats)
	}
	for _, gen := range dcSchedules {
		sc := simCell{
			name: "direct-connect/sched:" + gen, algo: core.SchedPrefix + gen,
			cc:    sim.ClusterConfig{Model: dane, Nodes: dcNodes, PPN: dcPPN, Seed: p.seed, Fabric: gen},
			block: dcBlock, reps: dcReps, real: true,
		}
		res, err := sc.run(p.tr)
		p.attempt(err)
		if err == nil {
			add(res)
			schedRunS += res.runS
		}
	}
	core.SetSchedFetcher(nil)
	ring := simCell{
		name: "direct-connect/" + dcPairwise, algo: dcPairwise,
		cc:    sim.ClusterConfig{Model: dane, Nodes: dcNodes, PPN: dcRingPPN, Seed: p.seed, Fabric: "ring"},
		block: ringBlock, reps: dcReps,
	}
	ringRes, err := ring.run(p.tr)
	p.attempt(err)
	if err == nil {
		add(ringRes)
	}
	p.value("modeled_s", modeled)
	if p.index > 0 && !p.traced() {
		return nil
	}

	// A restarted job: a second handle on the same root reads every rank
	// program back. It runs after set-up and run are measured, on a run's
	// first pass and on traced passes only: the median over three or more
	// passes then ignores its allocations, and the run fits more passes.
	// Lookup never compiles, so a program missing from the registry fails.
	reg2, err := schedreg.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, gen := range dcSchedules {
		for rank := 0; rank < m.Size(); rank++ {
			err := p.tr.timed("schedreg.Registry.Lookup", "direct-connect/reload:"+gen, -1, func() error {
				_, err, ok := reg2.Lookup(schedreg.KeyFor(gen, m.Size(), m, rank))
				if err == nil && !ok {
					err = errors.New("not in the registry")
				}
				return err
			})
			if err != nil {
				err = fmt.Errorf("reload %s rank %d: %w", gen, rank, err)
			}
			p.attempt(err)
		}
	}
	reloadS := time.Since(t0).Seconds()
	p.value("reload_s", reloadS)

	if !p.traced() {
		return nil
	}
	simLayers(p, stats)
	var queued, blocked float64
	maxQueue := 0
	for _, s := range stats {
		queued += s.LinkQueuedSeconds
		blocked += s.LinkBlockedSeconds
		maxQueue = max(maxQueue, s.MaxLinkQueueBytes)
	}
	p.layer("sim.flow.queued_s", queued)
	p.layer("sim.flow.blocked_s", blocked)
	p.layer("sim.flow.max_queue_bytes", float64(maxQueue))

	// Flow-link admission: the ring cell minus an analytic twin of it.
	twin := ring
	twin.name += "/analytic"
	twin.cc.Fabric = ""
	twinRes, err := twin.run(p.tr)
	p.attempt(err)
	if err == nil {
		p.layer("sim.flow.admission_s", ringRes.runS-twinRes.runS)
		p.layer("sim.flow.extra_events", float64(ringRes.stats.Events)-float64(twinRes.stats.Events))
	}

	cs := core.SchedCacheStats()
	p.layer("core.sched_cache.hits", float64(cs.Hits))
	p.layer("core.sched_cache.misses", float64(cs.Misses))

	progs, rounds, err := schedLayers(p, m)
	if err != nil {
		return err
	}
	if rounds > 0 {
		// Each cell times dcReps exchanges of rank 0's rounds; the one
		// barrier between them is included.
		p.layer("sched.exec_round_s", schedRunS/float64(rounds*dcReps))
	}

	st1, st2 := reg.Stats(), reg2.Stats()
	p.layer("schedreg.fill_s", fill.s)
	p.layer("schedreg.hits", float64(st1.Hits+st2.Hits))
	p.layer("schedreg.misses", float64(st1.Misses+st2.Misses))
	p.layer("schedreg.compiles", float64(st1.Compiles+st2.Compiles))
	hit := reloadS / float64(progs)
	p.layer("schedreg.hit_s", hit)
	compile := (p.res.Layer["sched.compile_s"] + p.res.Layer["sched.verify_rank_s"]) / float64(progs)
	if compile > 0 {
		p.layer("schedreg.hit_over_compile", hit/compile)
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	p.layer("schedreg.disk_bytes", float64(size))
	return nil
}

// schedLayers calls sched's public entry points on the workload's worlds
// outside the simulator, so each is timed alone. It returns the number of
// rank programs compiled and the rounds summed over worlds.
func schedLayers(p *pass, m *topo.Mapping) (progs, rounds int, err error) {
	var compile, verifyRank, verifyWorld float64
	var steps, bytes int64
	for _, gen := range dcSchedules {
		cell := "direct-connect/compile:" + gen
		t0 := time.Now()
		if err := p.tr.timed("sched.VerifyWorldSliced", cell, -1, func() error {
			return sched.VerifyWorldSliced(gen, m.Size(), m)
		}); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", cell, err)
		}
		verifyWorld += time.Since(t0).Seconds()
		for rank := 0; rank < m.Size(); rank++ {
			t0 := time.Now()
			rp, err := sched.GenerateRank(gen, m.Size(), rank, m)
			t1 := time.Now()
			p.tr.add("sched.GenerateRank", cell, -1, t0, t1)
			if err != nil {
				return 0, 0, fmt.Errorf("%s rank %d: %w", cell, rank, err)
			}
			if err := sched.VerifyRank(rp); err != nil {
				return 0, 0, fmt.Errorf("%s rank %d: %w", cell, rank, err)
			}
			t2 := time.Now()
			p.tr.add("sched.VerifyRank", cell, -1, t1, t2)
			compile += t1.Sub(t0).Seconds()
			verifyRank += t2.Sub(t1).Seconds()
			steps += int64(rp.Steps())
			bytes += rp.MemBytes()
			if rank == 0 {
				rounds += len(rp.Rounds)
			}
			progs++
		}
	}
	p.layer("sched.compile_s", compile)
	p.layer("sched.verify_rank_s", verifyRank)
	p.layer("sched.verify_world_s", verifyWorld)
	p.layer("sched.steps", float64(steps))
	p.layer("sched.rounds", float64(rounds))
	p.layer("sched.program_bytes", float64(bytes))
	return progs, rounds, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
