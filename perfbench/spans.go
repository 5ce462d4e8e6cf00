package main

import (
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the module.
// Parent is the ID of the enclosing span (-1 for a root); Cell names the
// simulated job or exchange sequence the call belongs to, so spans of one
// cell can be grouped the way a request's spans share an identifier.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Cell   string  `json:"cell"`
	Start  float64 `json:"start"` // seconds since the tracer was created
	End    float64 `json:"end"`
}

// tracer keeps a pass's spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, so untraced passes pay only a nil
// check at each call site.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(w time.Time) float64 { return w.Sub(t.t0).Seconds() }

// add records a span whose bounds were stamped by the caller and returns its
// ID (-1 on a nil tracer). Under the simulator, rank coroutines interleave
// inside any call that communicates, so cell-level spans are built from
// stamps taken around the whole job rather than opened on one rank.
func (t *tracer) add(name, cell string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: t.at(start), End: t.at(end)})
	return id
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name, cell string, parent int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, cell, parent, start, time.Now())
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
