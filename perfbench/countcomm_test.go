package main

import (
	"bytes"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/core"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
)

// pairwiseOnce runs one pairwise exchange of block bytes on p live ranks,
// optionally through counting communicators, and returns every rank's
// receive buffer.
func pairwiseOnce(t *testing.T, p, block int, counts []commCounts) [][]byte {
	t.Helper()
	recvs := make([][]byte, p)
	err := runtime.Run(runtime.Config{Ranks: p}, func(c comm.Comm) error {
		r := c.Rank()
		if counts != nil {
			c = wrapCounting(c, &counts[r], runtime.DefaultEagerMax)
		}
		a, err := core.New("pairwise", c, block, core.Options{})
		if err != nil {
			return err
		}
		send, recv := comm.Alloc(p*block), comm.Alloc(p*block)
		testutil.FillAlltoall(send, r, p, block)
		if err := a.Alltoall(send, recv, block); err != nil {
			return err
		}
		recvs[r] = recv.Bytes()
		return testutil.CheckAlltoall(recv, r, p, block)
	})
	if err != nil {
		t.Fatal(err)
	}
	return recvs
}

// TestCountingCommPairwise checks the wrapper against pairwise exchange's
// known traffic: p(p-1) messages per exchange, each one block, and the same
// delivered bytes as an unwrapped run.
func TestCountingCommPairwise(t *testing.T) {
	for _, block := range []int{64, runtime.DefaultEagerMax + 1} {
		const p = 8
		counts := make([]commCounts, p)
		got := pairwiseOnce(t, p, block, counts)
		want := pairwiseOnce(t, p, block, nil)
		var msgs, byts, eager int64
		for r := range counts {
			msgs += counts[r].msgs.Load()
			byts += counts[r].bytes.Load()
			eager += counts[r].eager.Load()
		}
		if msgs != p*(p-1) {
			t.Errorf("block %d: counted %d messages, want p(p-1) = %d", block, msgs, p*(p-1))
		}
		if byts != int64(p*(p-1)*block) {
			t.Errorf("block %d: counted %d bytes, want %d", block, byts, p*(p-1)*block)
		}
		wantEager := msgs
		if block > runtime.DefaultEagerMax {
			wantEager = 0
		}
		if eager != wantEager {
			t.Errorf("block %d: counted %d eager messages, want %d", block, eager, wantEager)
		}
		for r := range got {
			if !bytes.Equal(got[r], want[r]) {
				t.Errorf("block %d rank %d: wrapped run delivered different bytes", block, r)
			}
		}
	}
}

// TestCountingCommCapabilities checks that wrapping keeps the substrate's
// AsyncStarter capability (and does not invent it) and that communicators
// from Split stay wrapped.
func TestCountingCommCapabilities(t *testing.T) {
	var n commCounts
	err := runtime.Run(runtime.Config{Ranks: 2}, func(c comm.Comm) error {
		w := wrapCounting(c, &n, runtime.DefaultEagerMax)
		if _, ok := w.(comm.AsyncStarter); !ok {
			t.Error("wrapper over the live runtime lost comm.AsyncStarter")
		}
		sub, err := w.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if _, ok := sub.(countingAsyncComm); !ok {
			t.Errorf("Split returned %T, want a counting wrapper", sub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapCounting(plainComm{}, &n, 0).(comm.AsyncStarter); ok {
		t.Error("wrapper advertises comm.AsyncStarter over a substrate without it")
	}
}

// plainComm is a comm.Comm without optional capabilities; only its type
// matters.
type plainComm struct{ comm.Comm }
