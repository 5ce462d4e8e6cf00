package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/netmodel"
	"alltoallx/internal/runtime"
	"alltoallx/internal/sim"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

// shapesFor returns the rank counts a generator must handle; hypercube is
// restricted to powers of two.
func shapesFor(name string, rng *rand.Rand, n int) []int {
	var out []int
	if name == "hypercube" {
		for k := 0; k <= 5; k++ {
			out = append(out, 1<<k)
		}
		return out
	}
	out = append(out, 1, 2, 3) // degenerate and tiny shapes always
	for len(out) < n {
		out = append(out, 2+rng.Intn(23))
	}
	return out
}

// TestGeneratorsVerifyAtRandomShapes is the property test: every
// generator's output passes static verification at randomized world
// shapes, with and without a topology mapping.
func TestGeneratorsVerifyAtRandomShapes(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for _, name := range Generators() {
		for _, p := range shapesFor(name, rng, 10) {
			s, err := Generate(name, p, nil)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if err := Verify(s); err != nil {
				t.Errorf("%s p=%d fails verification: %v", name, p, err)
			}
			if s.Ranks != p {
				t.Errorf("%s p=%d: schedule says %d ranks", name, p, s.Ranks)
			}
		}
	}
}

// TestTorusUsesTopology checks the torus generator shapes itself from the
// node x ppn grid when a mapping is present and still verifies.
func TestTorusUsesTopology(t *testing.T) {
	t.Parallel()
	spec := topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: 5}
	m, err := topo.NewMapping(spec, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Generate("torus", 15, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "torus3x5" {
		t.Errorf("schedule name %q, want torus3x5 (the node x ppn grid)", s.Name)
	}
	if err := Verify(s); err != nil {
		t.Fatal(err)
	}
	// Without topology, 15 factors most-square as 3x5 too; a prime count
	// degenerates to a single ring row.
	s, err = Generate("torus", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "torus1x7" {
		t.Errorf("schedule name %q, want torus1x7", s.Name)
	}
	if err := Verify(s); err != nil {
		t.Fatal(err)
	}
}

// rankExec wraps rank's slice of s in an executor, the form in which
// every schedule reaches a running rank.
func rankExec(s *Schedule, rank int) (*Exec, error) {
	rp, err := Slice(s, rank)
	if err != nil {
		return nil, err
	}
	return NewRankExec(rp), nil
}

// execBody runs an Exec via the live pattern check: fill, run twice
// (persistence), verify every byte.
func execBody(s *Schedule, block int) func(c comm.Comm) error {
	return func(c comm.Comm) error {
		p, rank := c.Size(), c.Rank()
		ex, err := rankExec(s, rank) // one executor per rank: scratch is per-rank state
		if err != nil {
			return err
		}
		send := comm.Alloc(p * block)
		recv := comm.Alloc(p * block)
		testutil.FillAlltoall(send, rank, p, block)
		for iter := 0; iter < 2; iter++ {
			for i := range recv.Bytes() {
				recv.Bytes()[i] = 0xEE
			}
			if err := ex.Run(c, send, recv, block, nil); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			if err := testutil.CheckAlltoall(recv, rank, p, block); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
		}
		return nil
	}
}

// TestExecLiveCorrectness runs every generator's schedule on the live
// runtime and checks every byte lands where MPI_Alltoall says.
func TestExecLiveCorrectness(t *testing.T) {
	t.Parallel()
	for _, name := range Generators() {
		shapes := []int{1, 2, 5, 8, 12}
		if name == "hypercube" {
			shapes = []int{1, 2, 8, 16}
		}
		for _, p := range shapes {
			for _, block := range []int{1, 3, 64} {
				name, p, block := name, p, block
				t.Run(fmt.Sprintf("%s/p%d/b%d", name, p, block), func(t *testing.T) {
					t.Parallel()
					s := mustGen(t, name, p)
					if err := Verify(s); err != nil {
						t.Fatal(err)
					}
					if err := runtime.Run(runtime.Config{Ranks: p}, execBody(s, block)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestExecSimCorrectness runs every generator under the discrete-event
// simulator with real payloads: the virtual-time transport must deliver
// the same bytes.
func TestExecSimCorrectness(t *testing.T) {
	t.Parallel()
	model := netmodel.Dane()
	model.Node = topo.Spec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	for _, name := range Generators() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := 16
			s := mustGen(t, name, p)
			if err := Verify(s); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.RunCluster(sim.ClusterConfig{Model: model, Nodes: 2, PPN: 8, Seed: 1},
				execBody(s, 4)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExecArgErrors checks executor argument validation.
func TestExecArgErrors(t *testing.T) {
	t.Parallel()
	s := mustGen(t, "pairwise", 4)
	err := runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		e, err := rankExec(s, c.Rank())
		if err != nil {
			return err
		}
		send, recv := comm.Alloc(2*4), comm.Alloc(2*4)
		if err := e.Run(c, send, recv, 4, nil); err == nil {
			return fmt.Errorf("4-rank schedule ran on a 2-rank communicator")
		}
		if err := e.Run(c, send, recv, 0, nil); err == nil {
			return fmt.Errorf("zero block accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecRejectsReserved: a schedule with a Reduce step fails at run
// time too (defense in depth behind the verifier).
func TestExecRejectsReserved(t *testing.T) {
	t.Parallel()
	s := &Schedule{
		Format: FormatVersion, Name: "bad", Ranks: 1,
		Rounds: []Round{{Steps: [][]Step{{{Kind: Reduce, Src: sendRef(0, 1), Dst: recvRef(0, 1)}}}}},
	}
	err := runtime.Run(runtime.Config{Ranks: 1}, func(c comm.Comm) error {
		e, err := rankExec(s, 0)
		if err != nil {
			return err
		}
		if err := e.Run(c, comm.Alloc(4), comm.Alloc(4), 4, nil); err == nil {
			return fmt.Errorf("reduce step executed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
