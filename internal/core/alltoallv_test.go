package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
)

// vPattern computes deterministic per-pair byte counts: rank s sends
// (s+d) % 7 + extra bytes to rank d, so counts vary (including zeros).
func vCount(s, d int) int { return (s+d)%7 + (s*d)%3 }

func runAlltoallvCase(t *testing.T, n int, nonblocking bool) {
	t.Helper()
	err := runtime.Run(runtime.Config{Ranks: n}, func(c comm.Comm) error {
		r := c.Rank()
		sendCounts := make([]int, n)
		recvCounts := make([]int, n)
		for i := 0; i < n; i++ {
			sendCounts[i] = vCount(r, i)
			recvCounts[i] = vCount(i, r)
		}
		sdispls, sTotal := DisplsFromCounts(sendCounts)
		rdispls, rTotal := DisplsFromCounts(recvCounts)
		send := comm.Alloc(sTotal)
		recv := comm.Alloc(rTotal)
		for i := 0; i < n; i++ {
			seg := send.Slice(sdispls[i], sendCounts[i])
			testutil.FillBlock(seg, r, i)
		}
		name := "pairwise"
		if nonblocking {
			name = "nonblocking"
		}
		// vCount is at most 8 bytes per peer.
		a, err := NewV(name, c, 8*n, Options{})
		if err != nil {
			return err
		}
		if err := a.Alltoallv(send, sendCounts, sdispls, recv, recvCounts, rdispls); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			seg := recv.Slice(rdispls[i], recvCounts[i])
			if err := testutil.CheckBlock(seg, i, r); err != nil {
				return fmt.Errorf("from %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 5, 8, 13} {
		for _, nb := range []bool{false, true} {
			n, nb := n, nb
			t.Run(fmt.Sprintf("n%d_nb%v", n, nb), func(t *testing.T) {
				t.Parallel()
				runAlltoallvCase(t, n, nb)
			})
		}
	}
}

// TestAlltoallvMatchesFixed: with uniform counts, alltoallv must reproduce
// the fixed-size all-to-all exactly.
func TestAlltoallvMatchesFixed(t *testing.T) {
	t.Parallel()
	f := func(blockRaw, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		block := int(blockRaw%16) + 1
		ok := true
		err := runtime.Run(runtime.Config{Ranks: n}, func(c comm.Comm) error {
			r := c.Rank()
			counts := make([]int, n)
			for i := range counts {
				counts[i] = block
			}
			displs, total := DisplsFromCounts(counts)
			send := comm.Alloc(total)
			recv := comm.Alloc(total)
			testutil.FillAlltoall(send, r, n, block)
			a, err := NewV("pairwise", c, total, Options{})
			if err != nil {
				return err
			}
			if err := a.Alltoallv(send, counts, displs, recv, counts, displs); err != nil {
				return err
			}
			if err := testutil.CheckAlltoall(recv, r, n, block); err != nil {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestAlltoallvErrors(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		good := []int{1, 1}
		displs := []int{0, 1}
		buf := comm.Alloc(2)
		a, err := NewV("pairwise", c, 4, Options{})
		if err != nil {
			return err
		}
		if err := a.Alltoallv(buf, []int{1}, displs, buf, good, displs); err == nil {
			return fmt.Errorf("short counts accepted")
		}
		if err := a.Alltoallv(buf, []int{-1, 1}, displs, buf, good, displs); err == nil {
			return fmt.Errorf("negative count accepted")
		}
		if err := a.Alltoallv(buf, []int{2, 2}, displs, buf, good, displs); err == nil {
			return fmt.Errorf("overflowing segment accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDisplsFromCounts(t *testing.T) {
	t.Parallel()
	displs, total := DisplsFromCounts([]int{3, 0, 5, 2})
	want := []int{0, 3, 3, 8}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	for i := range want {
		if displs[i] != want[i] {
			t.Fatalf("displs = %v, want %v", displs, want)
		}
	}
}
