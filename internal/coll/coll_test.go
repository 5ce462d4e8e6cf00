package coll

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
)

// runWorld is a shorthand for spinning up n live ranks.
func runWorld(t *testing.T, n int, body func(c comm.Comm) error) {
	t.Helper()
	if err := runtime.Run(runtime.Config{Ranks: n}, body); err != nil {
		t.Fatal(err)
	}
}

func fillRank(b comm.Buffer, rank int) {
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(rank*31 + i)
	}
}

func wantRank(rank, i int) byte { return byte(rank*31 + i) }

// TestGatherBothKindsAllRoots checks the gather with the first, last and
// middle rank as root over several world sizes. Its name and the
// "linear/" subtest prefix are kept from when Gather also had a binomial
// variant, so the suite's test names do not change.
func TestGatherBothKindsAllRoots(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for _, root := range []int{0, n - 1, n / 2} {
			n, root := n, root
			t.Run(fmt.Sprintf("linear/n%d/root%d", n, root), func(t *testing.T) {
				t.Parallel()
				const block = 6
				runWorld(t, n, func(c comm.Comm) error {
					send := comm.Alloc(block)
					fillRank(send, c.Rank())
					var recv comm.Buffer
					if c.Rank() == root {
						recv = comm.Alloc(n * block)
					}
					if err := Gather(c, root, send, recv, 10); err != nil {
						return err
					}
					if c.Rank() != root {
						return nil
					}
					for r := 0; r < n; r++ {
						for i := 0; i < block; i++ {
							if got := recv.Bytes()[r*block+i]; got != wantRank(r, i) {
								return fmt.Errorf("root recv[%d][%d] = %d, want %d", r, i, got, wantRank(r, i))
							}
						}
					}
					return nil
				})
			})
		}
	}
}

// TestScatterBothKindsAllRoots is TestGatherBothKindsAllRoots's
// counterpart for the linear scatter; its names are kept the same way.
func TestScatterBothKindsAllRoots(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for _, root := range []int{0, n - 1, n / 2} {
			n, root := n, root
			t.Run(fmt.Sprintf("linear/n%d/root%d", n, root), func(t *testing.T) {
				t.Parallel()
				const block = 5
				runWorld(t, n, func(c comm.Comm) error {
					var send comm.Buffer
					if c.Rank() == root {
						send = comm.Alloc(n * block)
						for r := 0; r < n; r++ {
							for i := 0; i < block; i++ {
								send.Bytes()[r*block+i] = wantRank(r, i)
							}
						}
					}
					recv := comm.Alloc(block)
					if err := Scatter(c, root, send, recv, 20); err != nil {
						return err
					}
					for i := 0; i < block; i++ {
						if got := recv.Bytes()[i]; got != wantRank(c.Rank(), i) {
							return fmt.Errorf("rank %d recv[%d] = %d, want %d", c.Rank(), i, got, wantRank(c.Rank(), i))
						}
					}
					return nil
				})
			})
		}
	}
}

// TestGatherScatterRoundTrip is a property test: scatter(gather(x)) == x
// for random payloads, sizes and roots.
func TestGatherScatterRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nRaw, rootRaw uint8) bool {
		n := int(nRaw%9) + 1
		root := int(rootRaw) % n
		block := 4
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]byte, n)
		for r := range inputs {
			inputs[r] = make([]byte, block)
			rng.Read(inputs[r])
		}
		ok := true
		err := runtime.Run(runtime.Config{Ranks: n}, func(c comm.Comm) error {
			send := comm.Alloc(block)
			copy(send.Bytes(), inputs[c.Rank()])
			var mid comm.Buffer
			if c.Rank() == root {
				mid = comm.Alloc(n * block)
			}
			if err := Gather(c, root, send, mid, 1); err != nil {
				return err
			}
			back := comm.Alloc(block)
			if err := Scatter(c, root, mid, back, 2); err != nil {
				return err
			}
			if !bytes.Equal(back.Bytes(), inputs[c.Rank()]) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBcast(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 5, 9, 16} {
		for _, root := range []int{0, n - 1} {
			n, root := n, root
			t.Run(fmt.Sprintf("n%d/root%d", n, root), func(t *testing.T) {
				t.Parallel()
				runWorld(t, n, func(c comm.Comm) error {
					b := comm.Alloc(16)
					if c.Rank() == root {
						fillRank(b, root)
					}
					if err := Bcast(c, root, b, 30); err != nil {
						return err
					}
					for i := range b.Bytes() {
						if b.Bytes()[i] != wantRank(root, i) {
							return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, b.Bytes()[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestGatherErrors(t *testing.T) {
	t.Parallel()
	runWorld(t, 2, func(c comm.Comm) error {
		send := comm.Alloc(4)
		if c.Rank() == 0 {
			if err := Gather(c, 0, send, comm.Alloc(4), 1); err == nil {
				return fmt.Errorf("short recv accepted")
			}
			if err := Gather(c, 9, send, comm.Alloc(8), 1); err == nil {
				return fmt.Errorf("bad root accepted")
			}
			// Take rank 1's contribution, which waits for a gather that
			// fits.
			return Gather(c, 0, send, comm.Alloc(8), 2)
		}
		if err := Gather(c, 9, send, comm.Buffer{}, 1); err == nil {
			return fmt.Errorf("bad root accepted on non-root")
		}
		return Gather(c, 0, send, comm.Buffer{}, 2)
	})
}
