package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

// vAlgos are the persistent alltoallv algorithms under test (tuned is
// exercised separately with an explicit dispatch spec).
var vAlgos = []string{"pairwise", "nonblocking", "node-aware", "locality-aware"}

// countsFor evaluates a p x p count matrix row/column for one rank.
func countsFor(p, r int, count func(src, dst int) int) (sendCounts, recvCounts []int) {
	sendCounts = make([]int, p)
	recvCounts = make([]int, p)
	for i := 0; i < p; i++ {
		sendCounts[i] = count(r, i)
		recvCounts[i] = count(i, r)
	}
	return sendCounts, recvCounts
}

// vBody builds the named persistent alltoallv, runs the (count-driven)
// pattern exchange twice, and verifies every received segment. It is the
// SPMD body shared by the live and simulated correctness tests.
func vBody(algo string, opts Options, count func(src, dst int) int, maxTotal int) func(c comm.Comm) error {
	return func(c comm.Comm) error {
		p, r := c.Size(), c.Rank()
		sendCounts, recvCounts := countsFor(p, r, count)
		sdispls, sTotal := DisplsFromCounts(sendCounts)
		rdispls, rTotal := DisplsFromCounts(recvCounts)
		// maxTotal is collective: every rank must pass the same value, so
		// derive the global maximum from the count matrix (in a local —
		// the returned closure is shared by every rank goroutine).
		mt := maxTotal
		if mt == 0 {
			mt = globalMaxTotal(p, count)
		}
		a, err := NewV(algo, c, mt, opts)
		if err != nil {
			return err
		}
		send := comm.Alloc(sTotal)
		recv := comm.Alloc(rTotal)
		for i := 0; i < p; i++ {
			testutil.FillBlock(send.Slice(sdispls[i], sendCounts[i]), r, i)
		}
		for iter := 0; iter < 2; iter++ {
			for i := range recv.Bytes() {
				recv.Bytes()[i] = 0xEE
			}
			if err := a.Alltoallv(send, sendCounts, sdispls, recv, recvCounts, rdispls); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			for i := 0; i < p; i++ {
				if err := testutil.CheckBlock(recv.Slice(rdispls[i], recvCounts[i]), i, r); err != nil {
					return fmt.Errorf("iter %d, from %d: %w", iter, i, err)
				}
			}
		}
		return nil
	}
}

// globalMaxTotal computes the largest per-rank send or receive total of a
// count matrix — the collective maxTotal every rank passes to NewV.
func globalMaxTotal(p int, count func(src, dst int) int) int {
	max := 1
	for r := 0; r < p; r++ {
		sc, rc := countsFor(p, r, count)
		if v := sumCounts(sc); v > max {
			max = v
		}
		if v := sumCounts(rc); v > max {
			max = v
		}
	}
	return max
}

// skewedCount is the standard varied-count pattern: includes zero-byte
// pairs and rank 1 sending nothing at all.
func skewedCount(src, dst int) int {
	if src == 1 {
		return 0 // rank 1 sends nothing to anyone
	}
	return (src+dst)%7 + (src*dst)%3
}

func TestNewVLive(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range vAlgos {
		for _, inner := range []Inner{InnerPairwise, InnerNonblocking} {
			algo, inner := algo, inner
			t.Run(fmt.Sprintf("%s_%s", algo, inner), func(t *testing.T) {
				t.Parallel()
				err := runtime.Run(runtime.Config{Mapping: m},
					vBody(algo, Options{Inner: inner, PPG: 4}, skewedCount, 0))
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestNewVSimulated runs the same correctness bodies under the
// discrete-event simulator with real payloads: the acceptance criterion
// that bytes land per MPI_Alltoallv semantics on both substrates.
func TestNewVSimulated(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	for _, algo := range vAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			cfg := sim.ClusterConfig{Model: model, Nodes: 3, PPN: 8, Seed: 7}
			_, err := sim.RunCluster(cfg, vBody(algo, Options{PPG: 2}, skewedCount, 0))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewVZeroEverything: every rank sends zero bytes to every peer; the
// exchange must still complete (leaders exchange empty aggregates).
func TestNewVZeroEverything(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range vAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			err := runtime.Run(runtime.Config{Mapping: m},
				vBody(algo, Options{PPG: 4}, func(int, int) int { return 0 }, 4))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewVPermutedDisplacements exercises non-contiguous, permuted
// layouts: segments sit in reverse peer order with gaps between them, so
// any algorithm that assumes contiguous rank-ordered displacements
// corrupts the pattern.
func TestNewVPermutedDisplacements(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range vAlgos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
				p, r := c.Size(), c.Rank()
				sendCounts, recvCounts := countsFor(p, r, skewedCount)
				// Slot layout: peer i's segment lives at slot p-1-i, each
				// slot padded by 3 gap bytes.
				const gap = 3
				slot := 0
				for i := 0; i < p; i++ {
					if sendCounts[i] > slot {
						slot = sendCounts[i]
					}
					if recvCounts[i] > slot {
						slot = recvCounts[i]
					}
				}
				slot += gap
				sdispls := make([]int, p)
				rdispls := make([]int, p)
				for i := 0; i < p; i++ {
					sdispls[i] = (p - 1 - i) * slot
					rdispls[i] = (p - 1 - i) * slot
				}
				send := comm.Alloc(p * slot)
				recv := comm.Alloc(p * slot)
				for i := 0; i < p; i++ {
					testutil.FillBlock(send.Slice(sdispls[i], sendCounts[i]), r, i)
				}
				a, err := NewV(algo, c, globalMaxTotal(p, skewedCount), Options{PPG: 4})
				if err != nil {
					return err
				}
				if err := a.Alltoallv(send, sendCounts, sdispls, recv, recvCounts, rdispls); err != nil {
					return err
				}
				for i := 0; i < p; i++ {
					if err := testutil.CheckBlock(recv.Slice(rdispls[i], recvCounts[i]), i, r); err != nil {
						return fmt.Errorf("from %d: %w", i, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVAlgorithmsAgreeProperty: every v-algorithm must produce segments
// byte-identical to a directly computed reference for random count
// matrices (including zero rows/columns) and random payloads.
func TestVAlgorithmsAgreeProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nodesRaw, qRaw uint8) bool {
		nodes := int(nodesRaw%2) + 2 // 2..3 nodes
		qChoices := []int{1, 2, 4, 8}
		q := qChoices[int(qRaw)%len(qChoices)]
		m, err := topo.NewMapping(tinyNode(), nodes, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Size()
		rng := rand.New(rand.NewSource(seed))
		counts := make([][]int, p)
		for s := range counts {
			counts[s] = make([]int, p)
			for d := range counts[s] {
				if rng.Intn(4) == 0 {
					continue // zero count
				}
				counts[s][d] = rng.Intn(23)
			}
		}
		count := func(src, dst int) int { return counts[src][dst] }
		inputs := make([][]byte, p)
		for r := range inputs {
			_, total := DisplsFromCounts(counts[r])
			inputs[r] = make([]byte, total)
			rng.Read(inputs[r])
		}
		// Reference: concatenate, per receiver, each source's segment.
		want := make([][]byte, p)
		for r := range want {
			for s := 0; s < p; s++ {
				sd, _ := DisplsFromCounts(counts[s])
				want[r] = append(want[r], inputs[s][sd[r]:sd[r]+counts[s][r]]...)
			}
		}
		maxTotal := 1
		for r := 0; r < p; r++ {
			sc, rc := countsFor(p, r, count)
			if v := sumCounts(sc); v > maxTotal {
				maxTotal = v
			}
			if v := sumCounts(rc); v > maxTotal {
				maxTotal = v
			}
		}
		for _, algo := range vAlgos {
			ok := true
			err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
				r := c.Rank()
				sc, rc := countsFor(p, r, count)
				sdispls, sTotal := DisplsFromCounts(sc)
				rdispls, rTotal := DisplsFromCounts(rc)
				_ = sdispls
				a, err := NewV(algo, c, maxTotal, Options{PPG: q})
				if err != nil {
					return err
				}
				send := comm.Alloc(sTotal)
				copy(send.Bytes(), inputs[r])
				recv := comm.Alloc(rTotal)
				if err := a.Alltoallv(send, sc, sdispls, recv, rc, rdispls); err != nil {
					return err
				}
				if !bytes.Equal(recv.Bytes(), want[r]) {
					ok = false
				}
				return nil
			})
			if err != nil || !ok {
				t.Logf("algo=%s nodes=%d q=%d seed=%d: err=%v ok=%v", algo, nodes, q, seed, err, ok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestVAsymmetricCountsDetected: a receiver expecting fewer bytes than
// the sender ships (globally inconsistent counts) must surface an error,
// not silent corruption. It runs under the simulator, whose engine
// diagnoses the aftermath (truncation on the mismatched pair, or a
// deadlock report once the erroring rank stops participating) instead of
// hanging like a real MPI job would.
func TestVAsymmetricCountsDetected(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = tinyNode()
	for _, algo := range []string{"pairwise", "nonblocking"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			cfg := sim.ClusterConfig{Model: model, Nodes: 1, PPN: 4, Seed: 1}
			_, err := sim.RunCluster(cfg, func(c comm.Comm) error {
				p, r := c.Size(), c.Rank()
				sc, rc := countsFor(p, r, func(int, int) int { return 4 })
				if r == 2 {
					rc[0] = 1 // rank 2 under-declares what rank 0 sends it
				}
				sdispls, sTotal := DisplsFromCounts(sc)
				rdispls, rTotal := DisplsFromCounts(rc)
				a, err := NewV(algo, c, sTotal, Options{})
				if err != nil {
					return err
				}
				send := comm.Alloc(sTotal)
				recv := comm.Alloc(rTotal)
				return a.Alltoallv(send, sc, sdispls, recv, rc, rdispls)
			})
			if err == nil {
				t.Fatal("want an error from inconsistent counts")
			}
		})
	}
}

// TestNewVValidation covers construction-time failures: unknown names,
// group sizes that do not divide the node, bruck inner, and bad maxTotal.
func TestNewVValidation(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		// Schedules compile fixed-size exchanges only: sched:* names no
		// alltoallv algorithm.
		for _, name := range []string{"no-such", "sched:direct", "sched:pairwise"} {
			if _, err := NewV(name, c, 8, Options{}); err == nil || !strings.Contains(err.Error(), "unknown alltoallv algorithm") {
				return fmt.Errorf("NewV(%q) = %v, want an unknown alltoallv algorithm", name, err)
			}
		}
		if _, err := NewV("pairwise", c, 0, Options{}); err == nil {
			return fmt.Errorf("zero maxTotal accepted")
		}
		if _, err := NewV("locality-aware", c, 8, Options{PPG: 3}); err == nil {
			return fmt.Errorf("non-divisor PPG accepted")
		}
		if _, err := NewV("node-aware", c, 8, Options{Inner: InnerBruck}); err == nil {
			return fmt.Errorf("bruck inner accepted for alltoallv")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedVDispatch drives the v-dispatcher across bucket boundaries and
// checks both correctness and the dispatch decisions.
func TestTunedVDispatch(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Dispatch{Op: OpAlltoallv, Entries: []DispatchEntry{
		{MaxBlock: 4, Name: "small", Algo: "pairwise"},
		{MaxBlock: 4096, Name: "large", Algo: "node-aware"},
	}}
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		p, r := c.Rank(), 0
		_ = p
		_ = r
		size := c.Size()
		const maxTotal = 64 * 1024
		a, err := NewV("tuned", c, maxTotal, Options{Table: spec})
		if err != nil {
			return err
		}
		picked := a.(interface{ Picked() string })
		for _, mean := range []int{2, 64} {
			count := func(src, dst int) int { return mean }
			sc, rc := countsFor(size, c.Rank(), count)
			sdispls, sTotal := DisplsFromCounts(sc)
			rdispls, rTotal := DisplsFromCounts(rc)
			send := comm.Alloc(sTotal)
			recv := comm.Alloc(rTotal)
			for i := 0; i < size; i++ {
				testutil.FillBlock(send.Slice(sdispls[i], sc[i]), c.Rank(), i)
			}
			if err := a.Alltoallv(send, sc, sdispls, recv, rc, rdispls); err != nil {
				return fmt.Errorf("mean %d: %w", mean, err)
			}
			for i := 0; i < size; i++ {
				if err := testutil.CheckBlock(recv.Slice(rdispls[i], rc[i]), i, c.Rank()); err != nil {
					return fmt.Errorf("mean %d, from %d: %w", mean, i, err)
				}
			}
			want := "small"
			if mean > 4 {
				want = "large"
			}
			if got := picked.Picked(); got != want {
				return fmt.Errorf("mean %d dispatched to %q, want %q", mean, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedVValidation: op mismatches between table and constructor are
// rejected in both directions.
func TestTunedVValidation(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		vSpec := &Dispatch{Op: OpAlltoallv, Entries: []DispatchEntry{{MaxBlock: 64, Algo: "pairwise"}}}
		fixedSpec := &Dispatch{Entries: []DispatchEntry{{MaxBlock: 64, Algo: "pairwise"}}}
		if _, err := New("tuned", c, 64, Options{Table: vSpec}); err == nil {
			return fmt.Errorf("alltoallv spec accepted by fixed-size tuned")
		}
		if _, err := NewV("tuned", c, 64, Options{Table: fixedSpec}); err == nil {
			return fmt.Errorf("fixed-size spec accepted by tuned alltoallv")
		}
		badAlgo := &Dispatch{Op: OpAlltoallv, Entries: []DispatchEntry{{MaxBlock: 64, Algo: "bruck"}}}
		if err := badAlgo.Validate(); err == nil {
			return fmt.Errorf("bruck accepted as an alltoallv winner")
		}
		badOp := &Dispatch{Op: "gather", Entries: []DispatchEntry{{MaxBlock: 64, Algo: "pairwise"}}}
		if err := badOp.Validate(); err == nil {
			return fmt.Errorf("unknown op accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedVDivergentTotals: a valid count matrix can give ranks
// different send totals that straddle a bucket boundary; the dispatcher
// must agree on one bucket collectively (the heaviest rank's) instead of
// letting lazy collective construction diverge into a deadlock.
func TestTunedVDivergentTotals(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 sends 200 B to every peer (mean 200); everyone else sends 1 B
	// (mean 1). Globally consistent, and the two means straddle the
	// boundary.
	count := func(src, dst int) int {
		if src == 0 {
			return 200
		}
		return 1
	}
	spec := &Dispatch{Op: OpAlltoallv, Entries: []DispatchEntry{
		{MaxBlock: 4, Name: "small", Algo: "pairwise"},
		{MaxBlock: 4096, Name: "large", Algo: "node-aware"},
	}}
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		p, r := c.Size(), c.Rank()
		sc, rc := countsFor(p, r, count)
		sdispls, sTotal := DisplsFromCounts(sc)
		rdispls, rTotal := DisplsFromCounts(rc)
		a, err := NewV("tuned", c, globalMaxTotal(p, count), Options{Table: spec})
		if err != nil {
			return err
		}
		send := comm.Alloc(sTotal)
		recv := comm.Alloc(rTotal)
		for i := 0; i < p; i++ {
			testutil.FillBlock(send.Slice(sdispls[i], sc[i]), r, i)
		}
		if err := a.Alltoallv(send, sc, sdispls, recv, rc, rdispls); err != nil {
			return err
		}
		for i := 0; i < p; i++ {
			if err := testutil.CheckBlock(recv.Slice(rdispls[i], rc[i]), i, r); err != nil {
				return fmt.Errorf("from %d: %w", i, err)
			}
		}
		// Every rank must have agreed on the heavy rank's bucket.
		if got := a.(interface{ Picked() string }).Picked(); got != "large" {
			return fmt.Errorf("rank %d dispatched to %q, want %q", r, got, "large")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
