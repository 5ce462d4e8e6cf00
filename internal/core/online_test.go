package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
)

// onlineModel is the tiny-node Dane the refinement tests simulate on.
func onlineModel() netmodel.Params {
	m := netmodel.Dane()
	m.Node = tinyNode()
	return m
}

func TestOnlineConfigValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  OnlineConfig
	}{
		{"negative window", OnlineConfig{Window: -1}},
		{"trial every call", OnlineConfig{TrialEvery: 1}},
		{"negative hysteresis", OnlineConfig{MinImprove: -0.1}},
		{"hysteresis >= 1", OnlineConfig{MinImprove: 1}},
	}
	for _, tc := range cases {
		err := runtime.Run(runtime.Config{Mapping: mapping(t, 1, 2)}, func(c comm.Comm) error {
			if _, err := New("tuned", c, 64, Options{Table: testDispatch(), Online: &tc.cfg}); err == nil {
				return fmt.Errorf("%s accepted", tc.name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnlinePromotesOnDrift is the heart of the refinement loop: a table
// whose bucket winner is wrong for the machine (as it would be after the
// machine drifted from the one the table was tuned on) must converge onto
// the adjacent bucket's algorithm — collectively, with the OnPromote
// event on rank 0 only, and with deterministic trial cadence.
func TestOnlinePromotesOnDrift(t *testing.T) {
	t.Parallel()
	const nodes, ppn, block = 2, 8, 4096
	// "slow" serves bucket 0 but is badly beaten there by bucket 1's
	// algorithm: sched:ring routes every block through Theta(p) hops,
	// pairwise sends it once.
	spec := &Dispatch{Entries: []DispatchEntry{
		{MaxBlock: 8192, Name: "slow", Algo: "sched:ring"},
		{MaxBlock: 16384, Name: "fast", Algo: "pairwise"},
	}}
	var (
		mu       sync.Mutex
		events   []PromoteEvent
		rankGens = make(map[int]int)
		picked   = make(map[int]string)
	)
	cfg := sim.ClusterConfig{Model: onlineModel(), Nodes: nodes, PPN: ppn, Seed: 1}
	_, err := sim.RunCluster(cfg, func(c comm.Comm) error {
		oc := &OnlineConfig{Window: 2, TrialEvery: 2, OnPromote: func(ev PromoteEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}
		a, err := New("tuned", c, 16384, Options{Table: spec, Online: oc})
		if err != nil {
			return err
		}
		send := comm.Virtual(c.Size() * block)
		recv := comm.Virtual(c.Size() * block)
		for i := 0; i < 12; i++ {
			if err := a.Alltoall(send, recv, block); err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
		}
		st := a.(interface{ OnlineStats() OnlineStats }).OnlineStats()
		if !st.Enabled {
			return fmt.Errorf("rank %d: stats disabled in online mode", c.Rank())
		}
		if got := st.Buckets[0].Entry.Algo; got != "pairwise" {
			return fmt.Errorf("rank %d: bucket 0 serves %q after 12 calls, want promoted pairwise", c.Rank(), got)
		}
		if st.Buckets[0].Calls != 12 || st.Buckets[0].Promotions != 1 {
			return fmt.Errorf("rank %d: bucket stats %+v, want 12 calls and 1 promotion", c.Rank(), st.Buckets[0])
		}
		mu.Lock()
		rankGens[c.Rank()] = st.Generation
		picked[c.Rank()] = a.(interface{ Picked() string }).Picked()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// OnPromote fires exactly once, on rank 0 only, after the collective
	// decision.
	if len(events) != 1 {
		t.Fatalf("OnPromote fired %d times, want exactly 1 (rank 0 only)", len(events))
	}
	ev := events[0]
	if ev.Op != OpAlltoall || ev.Bucket != 0 || ev.Generation != 1 {
		t.Errorf("event %+v: want op alltoall, bucket 0, generation 1", ev)
	}
	if ev.Old.Name != "slow" || ev.New.Name != "fast" || ev.New.MaxBlock != ev.Old.MaxBlock {
		t.Errorf("event promoted %q -> %q (boundary %d -> %d), want slow -> fast with the boundary kept",
			ev.Old.Name, ev.New.Name, ev.Old.MaxBlock, ev.New.MaxBlock)
	}
	if ev.NewMean >= ev.OldMean*(1-tunedHysteresis) {
		t.Errorf("promotion means %g vs %g do not clear the hysteresis that gated it", ev.NewMean, ev.OldMean)
	}
	// Every rank converged to the same generation and incumbent — the
	// decision was collective, not per-rank.
	for r, g := range rankGens {
		if g != 1 {
			t.Errorf("rank %d at generation %d, want 1", r, g)
		}
		if picked[r] != "fast" {
			t.Errorf("rank %d last picked %q, want fast", r, picked[r])
		}
	}
}

// TestOnlineKeepsGoodIncumbent: when the table is right for the machine,
// trials happen but nothing is promoted — the hysteresis window absorbs
// the challenger's near-miss or clear loss.
func TestOnlineKeepsGoodIncumbent(t *testing.T) {
	t.Parallel()
	const block = 4096
	spec := &Dispatch{Entries: []DispatchEntry{
		{MaxBlock: 8192, Name: "good", Algo: "pairwise"},
		{MaxBlock: 16384, Name: "bad", Algo: "sched:ring"},
	}}
	cfg := sim.ClusterConfig{Model: onlineModel(), Nodes: 2, PPN: 8, Seed: 1}
	_, err := sim.RunCluster(cfg, func(c comm.Comm) error {
		a, err := New("tuned", c, 16384, Options{Table: spec, Online: &OnlineConfig{Window: 2, TrialEvery: 2}})
		if err != nil {
			return err
		}
		send := comm.Virtual(c.Size() * block)
		recv := comm.Virtual(c.Size() * block)
		for i := 0; i < 20; i++ {
			if err := a.Alltoall(send, recv, block); err != nil {
				return err
			}
		}
		st := a.(interface{ OnlineStats() OnlineStats }).OnlineStats()
		b := st.Buckets[0]
		if b.Trials < 2 {
			return fmt.Errorf("only %d trials in 20 calls with TrialEvery=2", b.Trials)
		}
		if st.Generation != 0 || b.Promotions != 0 || b.Entry.Name != "good" {
			return fmt.Errorf("good incumbent displaced: gen %d, bucket %+v", st.Generation, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOnlineVPromotes runs the same drift convergence through the
// alltoallv dispatcher: at 4096 B/peer the node-aware aggregation loses
// badly to flat nonblocking on the tiny machine. The same calls run once
// more without refinement, and both runs' simulator counters are pinned:
// they fix the bytes, tags and order of the per-call bucket agreement and
// of the promotion agreement, which no BENCH snapshot covers.
func TestOnlineVPromotes(t *testing.T) {
	t.Parallel()
	const per = 4096
	spec := &Dispatch{Op: OpAlltoallv, Entries: []DispatchEntry{
		{MaxBlock: 8192, Name: "slow", Algo: "node-aware"},
		{MaxBlock: 16384, Name: "fast", Algo: "nonblocking"},
	}}
	cases := []struct {
		name   string
		online *OnlineConfig
		want   sim.Stats
	}{
		{"static", nil, sim.Stats{Events: 4232, Messages: 1296, VirtualSeconds: 0.0074544707910725967}},
		{"online", &OnlineConfig{Window: 2, TrialEvery: 2}, sim.Stats{Events: 9932, Messages: 2928, VirtualSeconds: 0.0028521247733628127}},
	}
	for _, tc := range cases {
		cfg := sim.ClusterConfig{Model: onlineModel(), Nodes: 2, PPN: 8, Seed: 1}
		got, err := sim.RunCluster(cfg, func(c comm.Comm) error {
			p := c.Size()
			a, err := NewV("tuned", c, p*16384, Options{Table: spec, Online: tc.online})
			if err != nil {
				return err
			}
			counts := make([]int, p)
			for i := range counts {
				counts[i] = per
			}
			displs, total := DisplsFromCounts(counts)
			send := comm.Virtual(total)
			recv := comm.Virtual(total)
			for i := 0; i < 12; i++ {
				if err := a.Alltoallv(send, counts, displs, recv, counts, displs); err != nil {
					return fmt.Errorf("call %d: %w", i, err)
				}
			}
			if tc.online == nil {
				return nil
			}
			st := a.(interface{ OnlineStats() OnlineStats }).OnlineStats()
			if st.Generation != 1 || st.Buckets[0].Entry.Algo != "nonblocking" {
				return fmt.Errorf("rank %d: generation %d, bucket 0 %q — v-dispatcher did not converge",
					c.Rank(), st.Generation, st.Buckets[0].Entry.Algo)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: sim stats %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestOnlineStatsDisabled: a statically tuned dispatcher reports a zero
// snapshot, and its shared spec is never copied or mutated.
func TestOnlineStatsDisabled(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Mapping: mapping(t, 1, 2)}, func(c comm.Comm) error {
		a, err := New("tuned", c, 8192, Options{Table: testDispatch()})
		if err != nil {
			return err
		}
		if st := a.(interface{ OnlineStats() OnlineStats }).OnlineStats(); st.Enabled {
			return fmt.Errorf("static dispatcher reports online stats: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedConcurrentStartExactlyOnce is the regression test for the
// opState check-then-set race: goroutines racing Start on one tuned
// instance must serialize to exactly one outstanding exchange, and the
// bucket's algorithm must be instantiated exactly once — the same
// singleflight discipline the schedule cache pins for racing schedFor
// callers. Both front ends run it. Run with -race: before the opState
// mutex, two racers could both pass the pending check and dispatch two
// bodies concurrently over the same lazy instance slot.
func TestTunedConcurrentStartExactlyOnce(t *testing.T) {
	t.Parallel()
	const racers, rounds, block = 8, 3, 10
	// frontEnd starts one exchange of block bytes per peer on fresh
	// buffers and exposes the dispatcher state the test inspects.
	type frontEnd struct {
		start  func() (Handle, error)
		picked func() string
		// cache returns the instance-cache size and the "small" bucket's
		// instance.
		cache func() (int, any)
	}
	fronts := []struct {
		name  string
		build func(c comm.Comm) (frontEnd, error)
	}{
		{"New", func(c comm.Comm) (frontEnd, error) {
			p := c.Size()
			a, err := New("tuned", c, 8192, Options{Table: testDispatch()})
			if err != nil {
				return frontEnd{}, err
			}
			tu := a.(*tuned)
			return frontEnd{
				start:  func() (Handle, error) { return a.Start(comm.Alloc(p*block), comm.Alloc(p*block), block) },
				picked: tu.Picked,
				cache:  func() (int, any) { return len(tu.insts), tu.insts[instKey{0, "small"}] },
			}, nil
		}},
		{"NewV", func(c comm.Comm) (frontEnd, error) {
			p := c.Size()
			spec := &Dispatch{Op: OpAlltoallv, Entries: []DispatchEntry{
				{MaxBlock: 16, Name: "small", Algo: "pairwise"},
				{MaxBlock: 256, Name: "mid", Algo: "nonblocking"},
				{MaxBlock: 4096, Name: "large", Algo: "pairwise"},
			}}
			a, err := NewV("tuned", c, p*8192, Options{Table: spec})
			if err != nil {
				return frontEnd{}, err
			}
			tu := a.(*tunedV)
			counts := make([]int, p)
			for i := range counts {
				counts[i] = block
			}
			displs, total := DisplsFromCounts(counts)
			return frontEnd{
				start: func() (Handle, error) {
					return a.Start(comm.Alloc(total), counts, displs, comm.Alloc(total), counts, displs)
				},
				picked: tu.Picked,
				cache:  func() (int, any) { return len(tu.insts), tu.insts[instKey{0, "small"}] },
			}, nil
		}},
	}
	for _, fe := range fronts {
		err := runtime.Run(runtime.Config{Mapping: mapping(t, 2, 8)}, func(c comm.Comm) error {
			op, err := fe.build(c)
			if err != nil {
				return err
			}
			var first any
			for round := 0; round < rounds; round++ {
				handles := make([]Handle, racers)
				errs := make([]error, racers)
				var wg sync.WaitGroup
				for i := 0; i < racers; i++ {
					i := i
					wg.Add(1)
					go func() {
						defer wg.Done()
						handles[i], errs[i] = op.start()
					}()
				}
				wg.Wait()
				// Exactly one racer may win the slot; the rest must fail
				// with ErrPending, not launch a second exchange.
				wins := 0
				for i := 0; i < racers; i++ {
					switch {
					case errs[i] == nil:
						wins++
						if err := handles[i].Wait(); err != nil {
							return fmt.Errorf("round %d: winner failed: %w", round, err)
						}
					case !errors.Is(errs[i], ErrPending):
						return fmt.Errorf("round %d racer %d: %v, want ErrPending", round, i, errs[i])
					}
				}
				if wins != 1 {
					return fmt.Errorf("round %d: %d Starts succeeded concurrently, want exactly 1", round, wins)
				}
				// Exactly-once lazy instantiation: the 10 B bucket exists,
				// the others were never touched, and every round reuses the
				// same instance.
				n, small := op.cache()
				if n != 1 || small == nil {
					return fmt.Errorf("round %d: lazy instantiation broken: %d instances, small %v", round, n, small)
				}
				if first == nil {
					first = small
				} else if small != first {
					return fmt.Errorf("round %d: bucket instance replaced across rounds", round)
				}
			}
			if got := op.picked(); got != "small" {
				return fmt.Errorf("picked %q, want small", got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", fe.name, err)
		}
	}
}
