package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/testutil"
)

// arrivalOrders names the two orders arrival forces.
var arrivalOrders = []struct {
	name   string
	posted bool
}{{"posted", true}, {"unexpected", false}}

// arrival runs rounds 2-rank exchanges: rank 0 runs send, rank 1 runs
// recv, which posts its receives and returns the wait that completes and
// checks them. With posted, rank 1 posts every receive before rank 0
// sends; otherwise rank 0's sends (eager, or nonblocking by rendezvous,
// so they return at once) are unexpected when rank 1 posts. A second
// barrier holds rank 1's wait until rank 0's sends have returned, so
// whatever the sender does to its buffers after a send is done before
// the receiver looks. send may return a wait too (nil for none), which
// rank 0 runs after that barrier. A rank that fails a round still meets
// every barrier, so a failure cannot strand its peer; arrival returns the
// first failure.
func arrival(posted bool, rounds int, send, recv func(c comm.Comm, round int) (wait func() error, err error)) error {
	return Run(Config{Ranks: 2}, func(c comm.Comm) error {
		var first error
		fail := func(round int, err error) {
			if err != nil && first == nil {
				first = fmt.Errorf("round %d: %w", round, err)
			}
		}
		for round := 0; round < rounds; round++ {
			if c.Rank() == 0 {
				if posted {
					fail(round, c.Barrier())
				}
				var wait func() error
				if first == nil {
					var err error
					wait, err = send(c, round)
					fail(round, err)
				}
				if !posted {
					fail(round, c.Barrier())
				}
				fail(round, c.Barrier())
				if wait != nil {
					fail(round, wait())
				}
				continue
			}
			if !posted {
				fail(round, c.Barrier())
			}
			var wait func() error
			if first == nil {
				var err error
				wait, err = recv(c, round)
				fail(round, err)
			}
			if posted {
				fail(round, c.Barrier())
			}
			fail(round, c.Barrier())
			if wait != nil {
				fail(round, wait())
			}
		}
		return first
	})
}

// irecvs posts one receive per buffer on (src 0, tag) and returns their
// requests.
func irecvs(c comm.Comm, tag int, bufs ...comm.Buffer) ([]comm.Request, error) {
	reqs := make([]comm.Request, len(bufs))
	for i, b := range bufs {
		var err error
		if reqs[i], err = c.Irecv(b, 0, tag); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// sendThenScribble sends a pattern of n bytes tagged with id and
// overwrites the buffer as soon as Send returns: an eager send must have
// copied it by then.
func sendThenScribble(c comm.Comm, n, id, tag int) error {
	b := comm.Alloc(n)
	testutil.FillBlock(b, 0, id)
	if err := c.Send(b, 1, tag); err != nil {
		return err
	}
	for i := range b.Bytes() {
		b.Bytes()[i] ^= 0xff
	}
	return nil
}

// eagerSizes are message sizes up to DefaultEagerMax: one byte, a size
// between two bounce classes, a power of two and the limit itself.
var eagerSizes = []int{1, 100, 256, DefaultEagerMax}

// viewSizes are the sizes of the messages sent from one vector view into
// another: one eager, one by rendezvous.
var viewSizes = []int{256, 16 << 10}

// sendViews starts viewSizes' messages to rank 1 on tag, each from a view
// of 64 B blocks two apart. Its wait completes the sends and then
// scribbles over the views: a receive must have copied its message by
// the time the send completes.
func sendViews(c comm.Comm, round, tag int) (func() error, error) {
	views := make([]testutil.View, len(viewSizes))
	reqs := make([]comm.Request, len(viewSizes))
	for i, n := range viewSizes {
		views[i] = testutil.NewView(2, n/64, 64)
		views[i].Fill(0, round*len(viewSizes)+i)
		var err error
		if reqs[i], err = c.Isend(views[i].Buf, 1, tag); err != nil {
			return nil, err
		}
	}
	return func() error {
		if err := c.WaitAll(reqs); err != nil {
			return err
		}
		for _, v := range views {
			v.Fill(1, 1)
		}
		return nil
	}, nil
}

// recvViews posts receives for sendViews' messages into views of 96 B
// blocks three apart, each a block longer than its message needs, so the
// runs of the two sides do not line up and the message ends inside a
// block. Its wait completes them and checks that each message filled its
// view's blocks in order and changed no other byte of the view's parent.
func recvViews(c comm.Comm, round, tag int) (func() error, error) {
	views := make([]testutil.View, len(viewSizes))
	bufs := make([]comm.Buffer, len(viewSizes))
	for i, n := range viewSizes {
		views[i] = testutil.NewView(3, (n+95)/96+1, 96)
		bufs[i] = views[i].Buf
	}
	reqs, err := irecvs(c, tag, bufs...)
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := c.WaitAll(reqs); err != nil {
			return err
		}
		for i, n := range viewSizes {
			if err := views[i].Check(n, 0, round*len(viewSizes)+i); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// TestEagerArrivalOrders sends eagerSizes' messages in both arrival
// orders, twice (so the second round's unexpected messages reuse the
// first round's bounce buffers). The sender scribbles over its buffer as
// soon as each Send returns; every received byte must still be the
// original, and the bytes of a receive buffer past the message must be
// untouched. viewSizes' messages go from vector views into vector views
// on another tag, with the same checks, in the same rounds.
func TestEagerArrivalOrders(t *testing.T) {
	t.Parallel()
	const tail = 16
	for _, o := range arrivalOrders {
		err := arrival(o.posted, 2, func(c comm.Comm, round int) (func() error, error) {
			for i, n := range eagerSizes {
				if err := sendThenScribble(c, n, round*len(eagerSizes)+i, 4); err != nil {
					return nil, err
				}
			}
			return sendViews(c, round, 5)
		}, func(c comm.Comm, round int) (func() error, error) {
			bufs := make([]comm.Buffer, len(eagerSizes))
			for i, n := range eagerSizes {
				bufs[i] = comm.Alloc(n + tail)
				testutil.FillBlock(bufs[i], 1, 1)
			}
			reqs, err := irecvs(c, 4, bufs...)
			if err != nil {
				return nil, err
			}
			waitViews, err := recvViews(c, round, 5)
			if err != nil {
				return nil, err
			}
			return func() error {
				if err := c.WaitAll(reqs); err != nil {
					return err
				}
				for i, n := range eagerSizes {
					if err := testutil.CheckBlock(bufs[i].Slice(0, n), 0, round*len(eagerSizes)+i); err != nil {
						return fmt.Errorf("%d B message: %w", n, err)
					}
					for j, v := range bufs[i].Bytes()[n:] {
						if v != testutil.PatternByte(1, 1, n+j) {
							return fmt.Errorf("%d B message wrote byte %d of its %d B receive buffer", n, n+j, n+tail)
						}
					}
				}
				return waitViews()
			}, nil
		})
		if err != nil {
			t.Errorf("%s: %v", o.name, err)
		}
	}
}

// TestEagerTruncation sends 4 16 B messages on one envelope in round 0
// and 5 in round 1, in both arrival orders; the first of each round lands
// in an 8 B receive and must fail with ErrTruncate, and the ones after it
// must arrive intact, in order. In the unexpected order a round's
// messages all sit in bounce buffers at once, and round 1 takes one more
// from the free list than round 0 returned: a buffer the truncation freed
// twice would hand two of them the same bytes.
func TestEagerTruncation(t *testing.T) {
	t.Parallel()
	const n, msgs = 16, 4
	for _, o := range arrivalOrders {
		err := arrival(o.posted, 2, func(c comm.Comm, round int) (func() error, error) {
			for i := 0; i < msgs+round; i++ {
				if err := sendThenScribble(c, n, round*msgs+i, 2); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}, func(c comm.Comm, round int) (func() error, error) {
			bufs := []comm.Buffer{comm.Alloc(n / 2)}
			for i := 1; i < msgs+round; i++ {
				bufs = append(bufs, comm.Alloc(n))
			}
			reqs, err := irecvs(c, 2, bufs...)
			if err != nil {
				return nil, err
			}
			return func() error {
				if err := c.Wait(reqs[0]); !errors.Is(err, comm.ErrTruncate) {
					return fmt.Errorf("%d B receive of a %d B message = %v, want ErrTruncate", n/2, n, err)
				}
				if err := c.WaitAll(reqs[1:]); err != nil {
					return err
				}
				for i := 1; i < len(bufs); i++ {
					if err := testutil.CheckBlock(bufs[i], 0, round*msgs+i); err != nil {
						return fmt.Errorf("message %d after the truncated one: %w", i, err)
					}
				}
				return nil
			}, nil
		})
		if err != nil {
			t.Errorf("%s: %v", o.name, err)
		}
	}
}

// TestEagerVirtualAndEmpty sends, in both arrival orders, a virtual
// message into a real buffer (which must keep its bytes), a real one into
// a virtual buffer, empty real and virtual messages into real buffers,
// and then a real message, which must arrive intact behind them on the
// same envelope.
func TestEagerVirtualAndEmpty(t *testing.T) {
	t.Parallel()
	sends := []comm.Buffer{comm.Virtual(256), comm.Alloc(256), comm.Alloc(0), comm.Virtual(0)}
	for _, o := range arrivalOrders {
		err := arrival(o.posted, 2, func(c comm.Comm, round int) (func() error, error) {
			for _, b := range sends {
				if err := c.Send(b, 1, 6); err != nil {
					return nil, err
				}
			}
			return nil, sendThenScribble(c, 64, round, 6)
		}, func(c comm.Comm, round int) (func() error, error) {
			untouched := []comm.Buffer{comm.Alloc(256), comm.Alloc(4), comm.Alloc(4)}
			for _, b := range untouched {
				testutil.FillBlock(b, 1, 1)
			}
			last := comm.Alloc(64)
			reqs, err := irecvs(c, 6, untouched[0], comm.Virtual(256), untouched[1], untouched[2], last)
			if err != nil {
				return nil, err
			}
			return func() error {
				if err := c.WaitAll(reqs); err != nil {
					return err
				}
				for i, b := range untouched {
					if err := testutil.CheckBlock(b, 1, 1); err != nil {
						return fmt.Errorf("receive buffer %d of a virtual or empty message changed: %w", i, err)
					}
				}
				return testutil.CheckBlock(last, 0, round)
			}, nil
		})
		if err != nil {
			t.Errorf("%s: %v", o.name, err)
		}
	}
}

// TestSendrecvSelf exchanges a rank's message with itself through
// Sendrecv, at an eager size and at a rendezvous size.
func TestSendrecvSelf(t *testing.T) {
	t.Parallel()
	for _, n := range []int{256, DefaultEagerMax + 1} {
		err := Run(Config{Ranks: 1}, func(c comm.Comm) error {
			sb, rb := comm.Alloc(n), comm.Alloc(n)
			testutil.FillBlock(sb, 0, 0)
			if err := c.Sendrecv(sb, 0, 3, rb, 0, 3); err != nil {
				return err
			}
			return testutil.CheckBlock(rb, 0, 0)
		})
		if err != nil {
			t.Errorf("%d B: %v", n, err)
		}
	}
}

// TestBlockingCallsAcrossGoroutines runs Sendrecv ping-pongs from
// several goroutines of each rank at once, as a rank's body and the
// goroutines running its started exchanges may, at an eager and a
// rendezvous size. Their pooled requests pass between goroutines through the rank's
// free list; with more goroutines than the list holds requests for, some
// are made fresh and some dropped when the list is full. Every received
// byte is checked, so a request completed for the wrong call or a stale
// error shows.
func TestBlockingCallsAcrossGoroutines(t *testing.T) {
	t.Parallel()
	const goroutines, rounds = 3, 200
	for _, n := range []int{64, DefaultEagerMax + 1} {
		err := Run(Config{Ranks: 2}, func(c comm.Comm) error {
			peer := 1 - c.Rank()
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					sb, rb := comm.Alloc(n), comm.Alloc(n)
					for i := 0; i < rounds; i++ {
						for j := range sb.Bytes() {
							sb.Bytes()[j] = byte(c.Rank() + 2*g + 8*i + j)
						}
						if err := c.Sendrecv(sb, peer, g, rb, peer, g); err != nil {
							errs[g] = fmt.Errorf("goroutine %d round %d: %w", g, i, err)
							return
						}
						for j, b := range rb.Bytes() {
							if want := byte(peer + 2*g + 8*i + j); b != want {
								errs[g] = fmt.Errorf("goroutine %d round %d: byte %d is %d, want %d", g, i, j, b, want)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			return errors.Join(errs...)
		})
		if err != nil {
			t.Errorf("%d B: %v", n, err)
		}
	}
}

// TestLiveAllocsPerMessage pins the heap allocations of a live message:
// a Send/Recv ping-pong's extra allocations over a shorter one, divided
// by its extra messages, so the world's set-up cancels out. An eager
// send copies into the posted receive or a recycled bounce buffer and
// returns a shared completed request, and every blocking call waits on a
// pooled request, so neither an eager nor a rendezvous message allocates.
// Not parallel: runtime.MemStats counts every goroutine's allocations.
func TestLiveAllocsPerMessage(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		max  float64
	}{
		{"eager/256B", 256, 0.5},
		{"eager/8KiB", DefaultEagerMax, 0.5},
		{"rendezvous/16KiB", 16 << 10, 0.5},
	} {
		measure := func(trips int) uint64 {
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			err := Run(Config{Ranks: 2}, func(c comm.Comm) error {
				b := comm.Alloc(tc.size)
				peer := 1 - c.Rank()
				for i := 0; i < trips; i++ {
					if c.Rank() == 0 {
						if err := c.Send(b, peer, 0); err != nil {
							return err
						}
						if err := c.Recv(b, peer, 0); err != nil {
							return err
						}
						continue
					}
					if err := c.Recv(b, peer, 0); err != nil {
						return err
					}
					if err := c.Send(b, peer, 0); err != nil {
						return err
					}
				}
				return nil
			})
			goruntime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.Mallocs - before.Mallocs
		}
		const short, long = 100, 600
		m1, m2 := measure(short), measure(long)
		per := float64(int64(m2)-int64(m1)) / float64(2*(long-short))
		t.Logf("%s: %.2f allocations per message", tc.name, per)
		if per > tc.max {
			t.Errorf("%s: %.2f allocations per message, want at most %g", tc.name, per, tc.max)
		}
	}
}
