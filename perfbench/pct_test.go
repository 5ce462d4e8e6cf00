package main

import (
	"math/rand"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median reordered its input: %v", c.xs)
			}
		}
	}
}

// TestSummarizeTail pins the tail rule: the highest percentile on the ladder
// with at least ten samples beyond it, read by nearest rank.
func TestSummarizeTail(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{19, 0},
		{20, 50},
		{39, 50},
		{40, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{10000, 99.9},
	} {
		// A shuffled 1..n: the p-th percentile by nearest rank is
		// ceil(p*n/100), and exactly n minus that many samples lie beyond it.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(c.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		s := summarize(xs)
		if s.N != c.n || s.TailPct != c.wantPct {
			t.Errorf("n=%d: got N=%d TailPct=%g, want TailPct=%g", c.n, s.N, s.TailPct, c.wantPct)
			continue
		}
		if s.TailPct == 0 {
			continue
		}
		if beyond := c.n - int(s.Tail); beyond < 10 {
			t.Errorf("n=%d p%g = %g leaves %d samples beyond it, want >= 10", c.n, s.TailPct, s.Tail, beyond)
		}
		if want := float64(c.n+1) / 2; s.P50 != want {
			t.Errorf("n=%d: P50 = %g, want %g", c.n, s.P50, want)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}
