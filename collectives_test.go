package alltoallx_test

import (
	"fmt"
	"testing"

	"alltoallx"
)

func TestPublicAlltoallv(t *testing.T) {
	t.Parallel()
	const n = 6
	err := alltoallx.RunLive(alltoallx.LiveConfig{Ranks: n}, func(c alltoallx.Comm) error {
		r := c.Rank()
		sendCounts := make([]int, n)
		recvCounts := make([]int, n)
		for i := 0; i < n; i++ {
			sendCounts[i] = (r+i)%4 + 1
			recvCounts[i] = (i+r)%4 + 1
		}
		sdispls, sTotal := alltoallx.DisplsFromCounts(sendCounts)
		rdispls, rTotal := alltoallx.DisplsFromCounts(recvCounts)
		send := alltoallx.Alloc(sTotal)
		for i := 0; i < n; i++ {
			for k := 0; k < sendCounts[i]; k++ {
				send.Bytes()[sdispls[i]+k] = byte(r*16 + i)
			}
		}
		for _, name := range []string{"pairwise", "nonblocking"} {
			// Every count is at most 4 bytes.
			a, err := alltoallx.NewV(name, c, 4*n, alltoallx.Options{})
			if err != nil {
				return err
			}
			recv := alltoallx.Alloc(rTotal)
			if err := a.Alltoallv(send, sendCounts, sdispls, recv, recvCounts, rdispls); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			for i := 0; i < n; i++ {
				for k := 0; k < recvCounts[i]; k++ {
					if got, want := recv.Bytes()[rdispls[i]+k], byte(i*16+r); got != want {
						return fmt.Errorf("%s: rank %d from %d byte %d: got %d want %d", name, r, i, k, got, want)
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

func TestPublicNewV(t *testing.T) {
	t.Parallel()
	spec := alltoallx.NodeSpec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	mapping, err := alltoallx.NewMapping(spec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := mapping.Size()
	count := func(src, dst int) int { return (src+dst)%5 + 1 }
	maxTotal := 0
	for r := 0; r < p; r++ {
		st, rt := 0, 0
		for i := 0; i < p; i++ {
			st += count(r, i)
			rt += count(i, r)
		}
		if st > maxTotal {
			maxTotal = st
		}
		if rt > maxTotal {
			maxTotal = rt
		}
	}
	for _, name := range []string{"node-aware", "locality-aware", "tuned"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := alltoallx.Options{PPG: 4}
			if name == "tuned" {
				opts.Table = &alltoallx.Dispatch{Op: alltoallx.OpAlltoallv, Entries: []alltoallx.DispatchEntry{
					{MaxBlock: 2, Algo: "pairwise"},
					{MaxBlock: 4096, Algo: "node-aware"},
				}}
			}
			err := alltoallx.RunLive(alltoallx.LiveConfig{Mapping: mapping}, func(c alltoallx.Comm) error {
				r := c.Rank()
				sc := make([]int, p)
				rc := make([]int, p)
				for i := 0; i < p; i++ {
					sc[i] = count(r, i)
					rc[i] = count(i, r)
				}
				sdispls, sTotal := alltoallx.DisplsFromCounts(sc)
				rdispls, rTotal := alltoallx.DisplsFromCounts(rc)
				a, err := alltoallx.NewV(name, c, maxTotal, opts)
				if err != nil {
					return err
				}
				send := alltoallx.Alloc(sTotal)
				recv := alltoallx.Alloc(rTotal)
				for i := 0; i < p; i++ {
					for k := 0; k < sc[i]; k++ {
						send.Bytes()[sdispls[i]+k] = byte(r*16 + i)
					}
				}
				if err := a.Alltoallv(send, sc, sdispls, recv, rc, rdispls); err != nil {
					return err
				}
				for i := 0; i < p; i++ {
					for k := 0; k < rc[i]; k++ {
						if got, want := recv.Bytes()[rdispls[i]+k], byte(i*16+r); got != want {
							return fmt.Errorf("rank %d from %d byte %d: got %d want %d", r, i, k, got, want)
						}
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
