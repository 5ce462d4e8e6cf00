package alltoallx_test

import (
	"encoding/binary"
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

func TestPublicNodeAwareCollectives(t *testing.T) {
	t.Parallel()
	spec := alltoallx.NodeSpec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	mapping, err := alltoallx.NewMapping(spec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := mapping.Size()
	err = alltoallx.RunLive(alltoallx.LiveConfig{Mapping: mapping}, func(c alltoallx.Comm) error {
		na, err := alltoallx.NewNodeAwareCollectives(c)
		if err != nil {
			return err
		}
		// Allgather.
		const block = 4
		send := alltoallx.Alloc(block)
		for i := range send.Bytes() {
			send.Bytes()[i] = byte(c.Rank())
		}
		recv := alltoallx.Alloc(p * block)
		if err := na.Allgather(send, recv, block); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if recv.Bytes()[r*block] != byte(r) {
				return fmt.Errorf("allgather block %d wrong", r)
			}
		}
		// Bcast.
		b := alltoallx.Alloc(8)
		if c.Rank() == 3 {
			copy(b.Bytes(), []byte("broadcst"))
		}
		if err := na.Bcast(3, b); err != nil {
			return err
		}
		if string(b.Bytes()) != "broadcst" {
			return fmt.Errorf("bcast payload %q", b.Bytes())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicFlatCollectives(t *testing.T) {
	t.Parallel()
	const n = 7
	err := alltoallx.RunLive(alltoallx.LiveConfig{Ranks: n}, func(c alltoallx.Comm) error {
		const block = 8
		send := alltoallx.Alloc(block)
		binary.LittleEndian.PutUint64(send.Bytes(), uint64(int64(c.Rank()*10)))
		ring, err := alltoallx.NewAllgather("ring", c, alltoallx.Options{})
		if err != nil {
			return err
		}
		recv := alltoallx.Alloc(n * block)
		if err := ring.Allgather(send, recv, block); err != nil {
			return err
		}
		bruck, err := alltoallx.NewAllgather("bruck", c, alltoallx.Options{})
		if err != nil {
			return err
		}
		recv2 := alltoallx.Alloc(n * block)
		if err := bruck.Allgather(send, recv2, block); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			a := int64(binary.LittleEndian.Uint64(recv.Bytes()[r*block:]))
			b := int64(binary.LittleEndian.Uint64(recv2.Bytes()[r*block:]))
			if a != int64(r*10) || b != a {
				return fmt.Errorf("allgather mismatch at %d: ring %d bruck %d", r, a, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPublicNewV drives the unified persistent alltoallv API through the
// facade: node-aware aggregation plus the tuned dispatcher built from an
// OpAlltoallv dispatch spec.
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

// TestPublicCollectiveRegistries exercises the allgather registry
// constructor through the facade.
func TestPublicCollectiveRegistries(t *testing.T) {
	t.Parallel()
	spec := alltoallx.NodeSpec{Sockets: 2, NumaPerSocket: 2, CoresPerNuma: 2}
	mapping, err := alltoallx.NewMapping(spec, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := mapping.Size()
	if got := alltoallx.AllgatherAlgorithms(); len(got) < 3 {
		t.Fatalf("allgather registry too small: %v", got)
	}
	err = alltoallx.RunLive(alltoallx.LiveConfig{Mapping: mapping}, func(c alltoallx.Comm) error {
		r := c.Rank()
		const block = 8
		ag, err := alltoallx.NewAllgather("node-aware", c, alltoallx.Options{})
		if err != nil {
			return err
		}
		send := alltoallx.Alloc(block)
		recv := alltoallx.Alloc(p * block)
		for i := range send.Bytes() {
			send.Bytes()[i] = byte(r)
		}
		if err := ag.Allgather(send, recv, block); err != nil {
			return err
		}
		for s := 0; s < p; s++ {
			if got := recv.Bytes()[s*block]; got != byte(s) {
				return fmt.Errorf("allgather block %d: got %d", s, got)
			}
		}

		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
