package main

import (
	"sync/atomic"
	"time"

	"alltoallx/internal/comm"
)

// commCounts accumulates one rank's point-to-point traffic. It is shared by
// the rank's world communicator, every communicator Split derives from it,
// and the bodies the rank starts asynchronously, so its fields are atomic.
type commCounts struct {
	msgs, bytes, eager atomic.Int64
	// postNs is time spent in nonblocking posts (Isend, Irecv); waitNs is
	// time spent in calls that block for completion (Send, Recv, Sendrecv,
	// Wait, WaitAll).
	postNs, waitNs atomic.Int64
}

// countingComm forwards every comm.Comm method to the wrapped communicator
// and counts the messages, bytes and time that pass through it.
type countingComm struct {
	comm.Comm
	n        *commCounts
	eagerMax int
}

// countingAsyncComm is a countingComm over a substrate that implements
// comm.AsyncStarter. It is a separate type so the wrapper advertises the
// capability exactly when the substrate has it: core decides how a started
// operation runs by asserting for it.
type countingAsyncComm struct{ *countingComm }

func (c countingAsyncComm) StartAsync(body func() error) comm.Async {
	return c.Comm.(comm.AsyncStarter).StartAsync(body)
}

// wrapCounting wraps c so that its traffic is counted into n. Messages of at
// most eagerMax bytes are counted as eager.
func wrapCounting(c comm.Comm, n *commCounts, eagerMax int) comm.Comm {
	cc := &countingComm{Comm: c, n: n, eagerMax: eagerMax}
	if _, ok := c.(comm.AsyncStarter); ok {
		return countingAsyncComm{cc}
	}
	return cc
}

func (c *countingComm) sent(b comm.Buffer) {
	c.n.msgs.Add(1)
	c.n.bytes.Add(int64(b.Len()))
	if b.Len() <= c.eagerMax {
		c.n.eager.Add(1)
	}
}

func (c *countingComm) post(t0 time.Time) { c.n.postNs.Add(int64(time.Since(t0))) }
func (c *countingComm) wait(t0 time.Time) { c.n.waitNs.Add(int64(time.Since(t0))) }

func (c *countingComm) Send(b comm.Buffer, dst, tag int) error {
	c.sent(b)
	defer c.wait(time.Now())
	return c.Comm.Send(b, dst, tag)
}

func (c *countingComm) Recv(b comm.Buffer, src, tag int) error {
	defer c.wait(time.Now())
	return c.Comm.Recv(b, src, tag)
}

func (c *countingComm) Isend(b comm.Buffer, dst, tag int) (comm.Request, error) {
	c.sent(b)
	defer c.post(time.Now())
	return c.Comm.Isend(b, dst, tag)
}

func (c *countingComm) Irecv(b comm.Buffer, src, tag int) (comm.Request, error) {
	defer c.post(time.Now())
	return c.Comm.Irecv(b, src, tag)
}

func (c *countingComm) Wait(r comm.Request) error {
	defer c.wait(time.Now())
	return c.Comm.Wait(r)
}

func (c *countingComm) WaitAll(rs []comm.Request) error {
	defer c.wait(time.Now())
	return c.Comm.WaitAll(rs)
}

func (c *countingComm) Sendrecv(sb comm.Buffer, dst, stag int, rb comm.Buffer, src, rtag int) error {
	c.sent(sb)
	defer c.wait(time.Now())
	return c.Comm.Sendrecv(sb, dst, stag, rb, src, rtag)
}

// Split wraps the derived communicator, so traffic on sub-communicators is
// counted into the same rank's totals.
func (c *countingComm) Split(color, key int) (comm.Comm, error) {
	sub, err := c.Comm.Split(color, key)
	if err != nil || sub == nil {
		return sub, err
	}
	return wrapCounting(sub, c.n, c.eagerMax), nil
}
