package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"alltoallx/internal/comm"
	"alltoallx/internal/testutil"
	"alltoallx/internal/topo"
)

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if err := Run(Config{}, func(c comm.Comm) error { return nil }); err == nil {
		t.Error("empty config accepted")
	}
	m, _ := topo.NewMapping(topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: 4}, 2, 4)
	if err := Run(Config{Ranks: 3, Mapping: m}, func(c comm.Comm) error { return nil }); err == nil {
		t.Error("conflicting Ranks/Mapping accepted")
	}
}

func TestPingPong(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 2}, func(c comm.Comm) error {
		b := comm.Alloc(8)
		switch c.Rank() {
		case 0:
			testutil.FillBlock(b, 0, 1)
			if err := c.Send(b, 1, 5); err != nil {
				return err
			}
			if err := c.Recv(b, 1, 6); err != nil {
				return err
			}
			return testutil.CheckBlock(b, 1, 0)
		case 1:
			if err := c.Recv(b, 0, 5); err != nil {
				return err
			}
			if err := testutil.CheckBlock(b, 0, 1); err != nil {
				return err
			}
			testutil.FillBlock(b, 1, 0)
			return c.Send(b, 0, 6)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousLargeMessage exercises the rendezvous path (> EagerMax).
func TestRendezvousLargeMessage(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 2, EagerMax: 64}, func(c comm.Comm) error {
		const n = 4096
		b := comm.Alloc(n)
		if c.Rank() == 0 {
			testutil.FillBlock(b, 0, 1)
			return c.Send(b, 1, 1)
		}
		if err := c.Recv(b, 0, 1); err != nil {
			return err
		}
		return testutil.CheckBlock(b, 0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMessageOrdering: messages between one (src, tag) pair must not
// overtake each other.
func TestMessageOrdering(t *testing.T) {
	t.Parallel()
	const k = 100
	err := Run(Config{Ranks: 2}, func(c comm.Comm) error {
		b := comm.Alloc(4)
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				b.Bytes()[0] = byte(i)
				if err := c.Send(b, 1, 3); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			if err := c.Recv(b, 0, 3); err != nil {
				return err
			}
			if got := int(b.Bytes()[0]); got != i {
				return fmt.Errorf("message %d overtaken: got %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagAndSourceSelectivity: receives match only their (source, tag).
func TestTagAndSourceSelectivity(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 3}, func(c comm.Comm) error {
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
			// Receive in an order unrelated to arrival.
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
				return fmt.Errorf("remaining message: got %d", b.Bytes()[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncationError(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 2}, func(c comm.Comm) error {
		if c.Rank() == 0 {
			return c.Send(comm.Alloc(16), 1, 1)
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

func TestSendrecvSymmetric(t *testing.T) {
	t.Parallel()
	const n = 8
	err := Run(Config{Ranks: n, EagerMax: 4}, func(c comm.Comm) error {
		// All ranks exchange simultaneously in a ring with rendezvous-size
		// messages: deadlock-free only if Sendrecv posts the receive first.
		sb, rb := comm.Alloc(64), comm.Alloc(64)
		to := (c.Rank() + 1) % n
		from := (c.Rank() - 1 + n) % n
		testutil.FillBlock(sb, c.Rank(), to)
		if err := c.Sendrecv(sb, to, 9, rb, from, 9); err != nil {
			return err
		}
		return testutil.CheckBlock(rb, from, c.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	t.Parallel()
	const n = 16
	var phase atomic.Int32
	err := Run(Config{Ranks: n}, func(c comm.Comm) error {
		phase.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := phase.Load(); got != n {
			return fmt.Errorf("rank %d passed barrier with %d arrivals", c.Rank(), got)
		}
		return c.Barrier() // reusable
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitGroupsAndOrder(t *testing.T) {
	t.Parallel()
	const n = 12
	err := Run(Config{Ranks: n}, func(c comm.Comm) error {
		// Split into 3 colors; key reverses the order within each color.
		color := c.Rank() % 3
		sub, err := c.Split(color, -c.Rank())
		if err != nil {
			return err
		}
		subComm := sub.(*Comm)
		if subComm.Size() != n/3 {
			return fmt.Errorf("sub size = %d, want %d", subComm.Size(), n/3)
		}
		// Highest parent rank should be rank 0 in the subcomm.
		wantRank := (n - 3 + color - c.Rank()) / 3
		if subComm.Rank() != wantRank {
			return fmt.Errorf("parent %d: sub rank = %d, want %d", c.Rank(), subComm.Rank(), wantRank)
		}
		// The subcommunicator must carry traffic independently.
		b := comm.Alloc(4)
		if subComm.Rank() == 0 {
			b.Bytes()[0] = byte(color)
			for r := 1; r < subComm.Size(); r++ {
				if err := subComm.Send(b, r, 0); err != nil {
					return err
				}
			}
			return nil
		}
		if err := subComm.Recv(b, 0, 0); err != nil {
			return err
		}
		if int(b.Bytes()[0]) != color {
			return fmt.Errorf("cross-communicator leak: got %d, want %d", b.Bytes()[0], color)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 4}, func(c comm.Comm) error {
		color := 0
		if c.Rank() >= 2 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() >= 2 {
			if sub != nil {
				return fmt.Errorf("rank %d: expected nil comm for negative color", c.Rank())
			}
			return nil
		}
		if sub == nil || sub.Size() != 2 {
			return fmt.Errorf("rank %d: bad subcomm", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	t.Parallel()
	const n = 6
	err := Run(Config{Ranks: n}, func(c comm.Comm) error {
		block := 32
		send := comm.Alloc(n * block)
		recv := comm.Alloc(n * block)
		testutil.FillAlltoall(send, c.Rank(), n, block)
		var reqs []comm.Request
		for i := 0; i < n; i++ {
			if i == c.Rank() {
				if err := c.Memcpy(recv.Slice(i*block, block), send.Slice(i*block, block)); err != nil {
					return err
				}
				continue
			}
			rq, err := c.Irecv(recv.Slice(i*block, block), i, 7)
			if err != nil {
				return err
			}
			sq, err := c.Isend(send.Slice(i*block, block), i, 7)
			if err != nil {
				return err
			}
			if !rq.Pending() && sq == nil {
				return fmt.Errorf("unexpected request state")
			}
			reqs = append(reqs, rq, sq, nil) // nil requests are ignored
		}
		if err := c.WaitAll(reqs); err != nil {
			return err
		}
		return testutil.CheckAlltoall(recv, c.Rank(), n, block)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArguments(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 2}, func(c comm.Comm) error {
		b := comm.Alloc(4)
		if _, err := c.Isend(b, 5, 0); err == nil {
			return fmt.Errorf("bad peer accepted")
		}
		if _, err := c.Irecv(b, -1, 0); err == nil {
			return fmt.Errorf("negative peer accepted")
		}
		if _, err := c.Isend(b, 1, -3); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if err := c.Wait(nil); err != nil {
			return fmt.Errorf("nil request: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicIsolation(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 2}, func(c comm.Comm) error {
		if c.Rank() == 1 {
			panic("rank 1 exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestTopoAndNow(t *testing.T) {
	t.Parallel()
	m, err := topo.NewMapping(topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: 4}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = Run(Config{Mapping: m}, func(c comm.Comm) error {
		if c.Topo() == nil {
			return fmt.Errorf("world topo missing")
		}
		sub, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			return err
		}
		if sub.Topo() != nil {
			return fmt.Errorf("subcomm should not carry topo")
		}
		if c.Now() < 0 {
			return fmt.Errorf("negative Now")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyAndChargeCopy(t *testing.T) {
	t.Parallel()
	err := Run(Config{Ranks: 1}, func(c comm.Comm) error {
		a, b := comm.Alloc(4), comm.Alloc(4)
		a.Bytes()[2] = 42
		if err := c.Memcpy(b, a); err != nil {
			return err
		}
		if b.Bytes()[2] != 42 {
			return fmt.Errorf("memcpy failed")
		}
		if err := c.ChargeCopy(100, 10); err != nil {
			return err
		}
		if err := c.ChargeCopy(-1, 0); err == nil {
			return fmt.Errorf("negative ChargeCopy accepted")
		}
		return c.Memcpy(comm.Alloc(3), a)
	})
	if err == nil {
		t.Fatal("length-mismatched Memcpy accepted")
	}
}

// TestSendrecvBadSendLeavesNoReceive calls Sendrecv with an out-of-range
// destination and then a negative send tag, each with a valid receive
// half: both must fail without posting that receive, so the peer's next
// message on the receive tag reaches the Recv that follows. A receive
// left posted would swallow it, and the Recv would take a later message
// or block forever; the timeout turns the hang into a failure.
func TestSendrecvBadSendLeavesNoReceive(t *testing.T) {
	t.Parallel()
	done := make(chan error, 1)
	go func() {
		done <- Run(Config{Ranks: 2}, func(c comm.Comm) error {
			b := comm.Alloc(4)
			if c.Rank() == 1 {
				for i := 0; i < 2; i++ {
					testutil.FillBlock(b, 1, i)
					if err := c.Send(b, 0, 7); err != nil {
						return err
					}
				}
				return nil
			}
			bad := []struct{ dst, stag int }{{5, 0}, {1, -1}}
			for i, a := range bad {
				if err := c.Sendrecv(b, a.dst, a.stag, comm.Alloc(4), 1, 7); err == nil {
					return fmt.Errorf("Sendrecv to %d with tag %d accepted", a.dst, a.stag)
				}
				if err := c.Recv(b, 1, 7); err != nil {
					return err
				}
				if err := testutil.CheckBlock(b, 1, i); err != nil {
					return fmt.Errorf("message %d: %w", i, err)
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv after a failed Sendrecv did not complete in 10 s: the failed call left its receive posted")
	}
}

// TestSendrecvTruncatedSendWaitsForReceive: when Sendrecv's rendezvous
// send is truncated by the peer's smaller receive, the call still waits
// for its own receive, so it returns ErrTruncate with the peer's first
// message (A, sent about 50 ms later) in its buffer, and the next Recv
// on that tag gets the second (B). A call that returned on the send's
// error left its receive posted, to take A after it returned.
func TestSendrecvTruncatedSendWaitsForReceive(t *testing.T) {
	t.Parallel()
	done := make(chan error, 1)
	go func() {
		done <- Run(Config{Ranks: 2, EagerMax: 4}, func(c comm.Comm) error {
			if c.Rank() == 1 {
				if err := c.Recv(comm.Alloc(8), 0, 1); !errors.Is(err, comm.ErrTruncate) {
					return fmt.Errorf("rank 1's 8 B Recv of a 16 B send = %v, want ErrTruncate", err)
				}
				time.Sleep(50 * time.Millisecond)
				for i := 0; i < 2; i++ {
					b := comm.Alloc(4)
					testutil.FillBlock(b, 1, i)
					if err := c.Send(b, 0, 2); err != nil {
						return err
					}
				}
				return nil
			}
			rb := comm.Alloc(4)
			if err := c.Sendrecv(comm.Alloc(16), 1, 1, rb, 1, 2); !errors.Is(err, comm.ErrTruncate) {
				return fmt.Errorf("Sendrecv = %v, want ErrTruncate", err)
			}
			if err := testutil.CheckBlock(rb, 1, 0); err != nil {
				return fmt.Errorf("Sendrecv returned before its receive took message A: %w", err)
			}
			b := comm.Alloc(4)
			if err := c.Recv(b, 1, 2); err != nil {
				return err
			}
			if err := testutil.CheckBlock(b, 1, 1); err != nil {
				return fmt.Errorf("the Recv after Sendrecv: %w", err)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Sendrecv with a truncated send and the Recv after it did not complete in 10 s")
	}
}
