package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

// TestAlgorithmsAgreeProperty: every algorithm must produce byte-identical
// results to the pairwise reference for random payloads, shapes and
// parameters. This is the repository's strongest single invariant — it
// pins the novel algorithms' repacking logic against the trivial
// reference.
func TestAlgorithmsAgreeProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nodesRaw, blockRaw, qRaw uint8) bool {
		nodes := int(nodesRaw%3) + 2  // 2..4 nodes
		block := int(blockRaw%19) + 1 // 1..19 bytes
		qChoices := []int{1, 2, 4, 8}
		q := qChoices[int(qRaw)%len(qChoices)]
		m, err := topo.NewMapping(tinyNode(), nodes, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Size()
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]byte, p)
		for r := range inputs {
			inputs[r] = make([]byte, p*block)
			rng.Read(inputs[r])
		}
		// Reference result computed directly: recv_r[s] = send_s[r].
		want := make([][]byte, p)
		for r := range want {
			want[r] = make([]byte, p*block)
			for s := 0; s < p; s++ {
				copy(want[r][s*block:(s+1)*block], inputs[s][r*block:(r+1)*block])
			}
		}
		for _, tc := range []struct {
			algo  string
			inner Inner
		}{
			{"pairwise", ""}, {"nonblocking", ""}, {"batched", ""}, {"bruck", ""},
			{"hierarchical", ""}, {"multileader", ""}, {"node-aware", ""}, {"locality-aware", ""},
			{"multileader-node-aware", ""},
			{"node-aware", InnerBruck}, {"locality-aware", InnerNonblocking},
		} {
			ok := true
			err := runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
				a, err := New(tc.algo, c, block, Options{PPL: q, PPG: q, BatchWindow: 3, Inner: tc.inner})
				if err != nil {
					return err
				}
				send := comm.Alloc(p * block)
				copy(send.Bytes(), inputs[c.Rank()])
				recv := comm.Alloc(p * block)
				if err := a.Alltoall(send, recv, block); err != nil {
					return err
				}
				// The exchange only reads send: node-aware's inter
				// exchange sends straight from it.
				if !bytes.Equal(recv.Bytes(), want[c.Rank()]) || !bytes.Equal(send.Bytes(), inputs[c.Rank()]) {
					ok = false
				}
				return nil
			})
			if err != nil || !ok {
				t.Logf("algo=%s inner=%q nodes=%d block=%d q=%d seed=%d: err=%v ok=%v", tc.algo, tc.inner, nodes, block, q, seed, err, ok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestBruckManyRankCounts sweeps awkward (non-power-of-two, prime) rank
// counts through the Bruck implementation.
func TestBruckManyRankCounts(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 5, 7, 11, 13, 16, 17, 24, 31, 32, 33} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			t.Parallel()
			const block = 5
			err := runtime.Run(runtime.Config{Ranks: n}, func(c comm.Comm) error {
				return liveBody("bruck", Options{}, block)(c)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchedWindowProperty: any window size yields correct results,
// including windows larger than the rank count.
func TestBatchedWindowProperty(t *testing.T) {
	t.Parallel()
	f := func(wRaw uint8) bool {
		w := int(wRaw%40) + 1
		err := runtime.Run(runtime.Config{Ranks: 9}, liveBody("batched", Options{BatchWindow: w}, 6))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRepeatedAlltoallReuse: a persistent instance survives many calls
// with changing payloads (staging buffers must not leak state).
func TestRepeatedAlltoallReuse(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	const block = 8
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		p := c.Size()
		a, err := New("multileader-node-aware", c, block, Options{PPL: 2})
		if err != nil {
			return err
		}
		send := comm.Alloc(p * block)
		recv := comm.Alloc(p * block)
		for iter := 0; iter < 5; iter++ {
			for d := 0; d < p; d++ {
				for i := 0; i < block; i++ {
					send.Bytes()[d*block+i] = byte(iter*31 + c.Rank()*7 + d*3 + i)
				}
			}
			if err := a.Alltoall(send, recv, block); err != nil {
				return fmt.Errorf("iter %d: %w", iter, err)
			}
			for s := 0; s < p; s++ {
				for i := 0; i < block; i++ {
					want := byte(iter*31 + s*7 + c.Rank()*3 + i)
					if got := recv.Bytes()[s*block+i]; got != want {
						return fmt.Errorf("iter %d block %d byte %d: got %d want %d", iter, s, i, got, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSmallerBlockThanMax: a persistent instance built for maxBlock must
// handle any smaller block.
func TestSmallerBlockThanMax(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(tinyNode(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = runtime.Run(runtime.Config{Mapping: m}, func(c comm.Comm) error {
		a, err := New("locality-aware", c, 64, Options{PPG: 4})
		if err != nil {
			return err
		}
		p := c.Size()
		for _, block := range []int{64, 16, 3, 1} {
			send := comm.Alloc(p * block)
			recv := comm.Alloc(p * block)
			testutil.FillAlltoall(send, c.Rank(), p, block)
			if err := a.Alltoall(send, recv, block); err != nil {
				return fmt.Errorf("block %d: %w", block, err)
			}
			if err := testutil.CheckAlltoall(recv, c.Rank(), p, block); err != nil {
				return fmt.Errorf("block %d: %w", block, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
