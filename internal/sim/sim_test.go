package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

// cleanModel is a deterministic model with simple constants for exact-ish
// timing assertions: noise off, negligible bus costs.
func cleanModel() netmodel.Params {
	return netmodel.Params{
		Name: "clean", Node: topo.Spec{Sockets: 1, NumaPerSocket: 2, CoresPerNuma: 4},
		LatIntraNuma: 1e-7, LatIntraSocket: 2e-7, LatInterSocket: 3e-7, LatInterNode: 1e-6,
		SendOverhead: 1e-7, RecvOverhead: 1e-7, MatchCost: 0,
		CopyBW: 1e12, CopyBlockCost: 0, NumaBW: 1e13, SocketLinkBW: 1e13,
		NICBW: 1e9, NICMsgCost: 1e-6, BusMsgCost: 0, InterleavePenalty: 0,
		EagerMax: 1024,
		Sys: netmodel.SysProfile{
			SmallAlgo: "bruck", SmallMax: 256,
			MidAlgo: "nonblocking", MidMax: 1024,
			LargeAlgo: "pairwise", OverheadScale: 1,
		},
	}
}

func TestClusterConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunCluster(ClusterConfig{Model: cleanModel(), Nodes: 0, PPN: 4}, nil); err == nil {
		t.Error("zero nodes accepted")
	}
	bad := cleanModel()
	bad.NICBW = 0
	if _, err := RunCluster(ClusterConfig{Model: bad, Nodes: 1, PPN: 2}, func(c comm.Comm) error { return nil }); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestSimPingPongPayloadAndTiming(t *testing.T) {
	t.Parallel()
	m := cleanModel()
	recvDone := make([]float64, 16)
	cfg := ClusterConfig{Model: m, Nodes: 2, PPN: 8, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		b := comm.Alloc(100)
		switch c.Rank() {
		case 0: // node 0 -> node 1: inter-node eager
			testutil.FillBlock(b, 0, 8)
			return c.Send(b, 8, 1)
		case 8:
			if err := c.Recv(b, 0, 1); err != nil {
				return err
			}
			recvDone[8] = c.Now()
			return testutil.CheckBlock(b, 0, 8)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: send overhead + 2 NIC message costs + wire latency.
	min := 1e-7 + 2*1e-6 + 1e-6
	// Upper bound adds the serialization and copy slack.
	max := min + 1e-6
	if recvDone[8] < min || recvDone[8] > max {
		t.Errorf("inter-node eager completion %g outside [%g, %g]", recvDone[8], min, max)
	}
}

func TestNICSerialization(t *testing.T) {
	t.Parallel()
	// Two senders on node 0 each ship 1000B to node 1 at NICBW=1e9:
	// transfers serialize at the NIC, so the later completion must be
	// at least two transfer durations after the first was injected.
	m := cleanModel()
	m.NICMsgCost = 0
	var tA, tB float64
	cfg := ClusterConfig{Model: m, Nodes: 2, PPN: 8, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		b := comm.Alloc(1000)
		switch c.Rank() {
		case 0:
			return c.Send(b, 8, 1)
		case 1:
			return c.Send(b, 9, 1)
		case 8:
			if err := c.Recv(b, 0, 1); err != nil {
				return err
			}
			tA = c.Now()
		case 9:
			if err := c.Recv(b, 1, 1); err != nil {
				return err
			}
			tB = c.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	later := tA
	if tB > later {
		later = tB
	}
	// One transfer is 1 us at the NIC; the second must queue behind it on
	// both ports, so the later finish is >= 2 us + latency.
	if later < 3e-6 {
		t.Errorf("no NIC serialization visible: later completion %g", later)
	}
}

func TestRendezvousSynchronizes(t *testing.T) {
	t.Parallel()
	m := cleanModel()
	var sendReturn float64
	const postTime = 5e-3
	cfg := ClusterConfig{Model: m, Nodes: 2, PPN: 8, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		b := comm.Alloc(100000) // > EagerMax: rendezvous
		switch c.Rank() {
		case 0:
			testutil.FillBlock(b, 0, 8)
			if err := c.Send(b, 8, 1); err != nil {
				return err
			}
			sendReturn = c.Now()
		case 8:
			// Post late: the sender must stall until we arrive.
			if sc, ok := c.(*SimComm); ok {
				sc.p.SleepUntil(postTime)
			}
			if err := c.Recv(b, 0, 1); err != nil {
				return err
			}
			return testutil.CheckBlock(b, 0, 8)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendReturn < postTime {
		t.Errorf("rendezvous sender returned at %g before receiver posted at %g", sendReturn, postTime)
	}
}

func TestEagerDoesNotSynchronize(t *testing.T) {
	t.Parallel()
	m := cleanModel()
	var sendReturn float64
	cfg := ClusterConfig{Model: m, Nodes: 2, PPN: 8, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		b := comm.Alloc(64) // eager
		switch c.Rank() {
		case 0:
			if err := c.Send(b, 8, 1); err != nil {
				return err
			}
			sendReturn = c.Now()
		case 8:
			if sc, ok := c.(*SimComm); ok {
				sc.p.SleepUntil(1e-2)
			}
			return c.Recv(b, 0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sendReturn > 1e-4 {
		t.Errorf("eager sender blocked until %g", sendReturn)
	}
}

func TestSimMatchingSelectivity(t *testing.T) {
	t.Parallel()
	cfg := ClusterConfig{Model: cleanModel(), Nodes: 1, PPN: 3, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		b := comm.Alloc(1)
		switch c.Rank() {
		case 0:
			b.Bytes()[0] = 10
			if err := c.Send(b, 2, 1); err != nil {
				return err
			}
			b.Bytes()[0] = 11
			return c.Send(b, 2, 2)
		case 1:
			b.Bytes()[0] = 20
			return c.Send(b, 2, 1)
		case 2:
			if err := c.Recv(b, 1, 1); err != nil {
				return err
			}
			if b.Bytes()[0] != 20 {
				return fmt.Errorf("src selectivity: got %d", b.Bytes()[0])
			}
			if err := c.Recv(b, 0, 2); err != nil {
				return err
			}
			if b.Bytes()[0] != 11 {
				return fmt.Errorf("tag selectivity: got %d", b.Bytes()[0])
			}
			if err := c.Recv(b, 0, 1); err != nil {
				return err
			}
			if b.Bytes()[0] != 10 {
				return fmt.Errorf("fifo remainder: got %d", b.Bytes()[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimTruncation(t *testing.T) {
	t.Parallel()
	cfg := ClusterConfig{Model: cleanModel(), Nodes: 1, PPN: 2, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		if c.Rank() == 0 {
			return c.Send(comm.Alloc(512), 1, 1)
		}
		err := c.Recv(comm.Alloc(8), 0, 1)
		if !errors.Is(err, comm.ErrTruncate) {
			return fmt.Errorf("want ErrTruncate, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimDeadlockDiagnosis(t *testing.T) {
	t.Parallel()
	cfg := ClusterConfig{Model: cleanModel(), Nodes: 1, PPN: 2, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		if c.Rank() == 0 {
			return c.Recv(comm.Alloc(8), 1, 9) // never sent
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not diagnosed: %v", err)
	}
}

func TestSimBarrierSynchronizes(t *testing.T) {
	t.Parallel()
	m := cleanModel()
	times := make([]float64, 8)
	cfg := ClusterConfig{Model: m, Nodes: 2, PPN: 4, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		if sc, ok := c.(*SimComm); ok {
			// Stagger arrivals; the barrier must hold everyone until the
			// latest.
			sc.p.SleepUntil(float64(c.Rank()) * 1e-3)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		times[c.Rank()] = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	latest := 7 * 1e-3
	for r, tm := range times {
		if tm < latest {
			t.Errorf("rank %d passed barrier at %g before last arrival %g", r, tm, latest)
		}
		if tm > latest+1e-3 {
			t.Errorf("rank %d barrier exit %g too late", r, tm)
		}
	}
}

func TestSimSplitIsolation(t *testing.T) {
	t.Parallel()
	cfg := ClusterConfig{Model: cleanModel(), Nodes: 2, PPN: 4, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 4 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// Negative color path (collective: every world rank calls Split).
		color := 0
		if c.Rank() >= 4 {
			color = -1
		}
		none, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() >= 4 && none != nil {
			return fmt.Errorf("negative color returned a communicator")
		}
		if c.Rank() < 4 && (none == nil || none.Size() != 4) {
			return fmt.Errorf("positive color group malformed: %v", none)
		}
		b := comm.Alloc(2)
		if sub.Rank() == 0 {
			b.Bytes()[0] = byte(c.Rank() % 2)
			for r := 1; r < sub.Size(); r++ {
				if err := sub.Send(b, r, 0); err != nil {
					return err
				}
			}
			return nil
		}
		if err := sub.Recv(b, 0, 0); err != nil {
			return err
		}
		if int(b.Bytes()[0]) != c.Rank()%2 {
			return fmt.Errorf("cross-communicator leak")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimDeterminismAcrossRuns(t *testing.T) {
	t.Parallel()
	m := netmodel.Dane()
	m.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	run := func(seed int64) float64 {
		var total float64
		cfg := ClusterConfig{Model: m, Nodes: 2, PPN: 8, Seed: seed}
		_, err := RunCluster(cfg, func(c comm.Comm) error {
			b := comm.Alloc(64)
			n := c.Size()
			for i := 1; i < n; i++ {
				sp := (c.Rank() + i) % n
				rp := (c.Rank() - i + n) % n
				if err := c.Sendrecv(b, sp, 1, comm.Alloc(64), rp, 1); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				total = c.Now()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	if a, b := run(11), run(11); a != b {
		t.Errorf("same seed diverged: %g vs %g", a, b)
	}
	if a, b := run(11), run(12); a == b {
		t.Errorf("different seeds produced identical times %g (noise not applied?)", a)
	}
}

func TestQueueSearchCost(t *testing.T) {
	t.Parallel()
	// A receive that scans a deep unexpected queue must cost more than one
	// that matches immediately.
	m := cleanModel()
	m.MatchCost = 1e-6
	const depth = 50
	var shallow, deep float64
	cfg := ClusterConfig{Model: m, Nodes: 1, PPN: 2, Seed: 1}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		if c.Rank() == 0 {
			b := comm.Alloc(1)
			for i := 0; i < depth; i++ {
				if err := c.Send(b, 1, 100+i); err != nil { // never received
					return err
				}
			}
			return c.Send(b, 1, 7)
		}
		if sc, ok := c.(*SimComm); ok {
			sc.p.SleepUntil(1e-2) // let everything arrive
		}
		b := comm.Alloc(1)
		t0 := c.Now()
		if err := c.Recv(b, 0, 7); err != nil { // scans depth entries
			return err
		}
		deep = c.Now() - t0
		t0 = c.Now()
		req, err := c.Irecv(b, 0, 99) // matches nothing: full scan of depth remaining
		if err != nil {
			return err
		}
		shallow = c.Now() - t0
		_ = req // left pending deliberately; engine finishes when procs do
		return nil
	})
	// The pending Irecv leaves no deadlock: the proc finished.
	if err != nil {
		t.Fatal(err)
	}
	if deep < depth*1e-6 {
		t.Errorf("deep queue search cost %g, want >= %g", deep, float64(depth)*1e-6)
	}
	if shallow <= 0 {
		t.Errorf("scan cost not charged: %g", shallow)
	}
}

func TestOverheadScaleSpeedsUp(t *testing.T) {
	t.Parallel()
	m := cleanModel()
	run := func(scale float64) float64 {
		var done float64
		cfg := ClusterConfig{Model: m, Nodes: 2, PPN: 2, Seed: 1, OverheadScale: scale}
		_, err := RunCluster(cfg, func(c comm.Comm) error {
			b := comm.Alloc(16)
			if c.Rank() == 0 {
				for i := 0; i < 10; i++ {
					if err := c.Send(b, 2, i); err != nil {
						return err
					}
				}
			}
			if c.Rank() == 2 {
				for i := 0; i < 10; i++ {
					if err := c.Recv(b, 0, i); err != nil {
						return err
					}
				}
				done = c.Now()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	full, tuned := run(1.0), run(0.5)
	if tuned >= full {
		t.Errorf("overhead scale 0.5 not faster: %g vs %g", tuned, full)
	}
}

// TestRendezvousSlotReuse runs a pairwise all-to-all of real bytes at a
// rendezvous block size. A rendezvous sender's request completes when its
// first stage clears, so a rank can return from Sendrecv while its flight
// is still in transit and reset that request's slot on its next step.
// Every byte must arrive, no request may be determined twice, and the
// reuse must really happen: some rank starts a step while the receiver
// of its previous send is still waiting for that message.
func TestRendezvousSlotReuse(t *testing.T) {
	t.Parallel()
	m := netmodel.Dane()
	m.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	m.EagerMax = 1 << 10
	const (
		nodes, ppn = 2, 8
		p          = nodes * ppn
		block      = 4 << 10
	)
	step := make([]int, p) // the step each rank is in
	reused := 0
	cfg := ClusterConfig{Model: m, Nodes: nodes, PPN: ppn, Seed: 3}
	_, err := RunCluster(cfg, func(c comm.Comm) error {
		r := c.Rank()
		procs := c.(*SimComm).cl.procs
		send, recv := comm.Alloc(p*block), comm.Alloc(p*block)
		testutil.FillAlltoall(send, r, p, block)
		for k := 0; k < p; k++ {
			if k > 0 {
				// Step k-1's receiver d takes that step's message from r
				// into its first slot.
				if d := (r + k - 1) % p; step[d] == k-1 && !procs[d].reqs[0].determined {
					reused++
				}
			}
			step[r] = k
			dst, src := (r+k)%p, (r-k+p)%p
			if err := c.Sendrecv(send.Slice(dst*block, block), dst, 0, recv.Slice(src*block, block), src, 0); err != nil {
				return err
			}
		}
		return testutil.CheckAlltoall(recv, r, p, block)
	})
	if err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Error("no rank reused its request slot while its rendezvous flight was in transit")
	}
	t.Logf("%d steps began with the previous step's flight in transit", reused)
}
