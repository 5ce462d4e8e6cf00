package core

import (
	"fmt"
	"strings"
	"testing"

	"alltoallx/internal/comm"
	"alltoallx/internal/runtime"
	"alltoallx/internal/testutil"
	"alltoallx/internal/trace"
)

// testDispatch is a three-bucket spec over cheap algorithms, with
// boundaries at 16 and 256 bytes.
func testDispatch() *Dispatch {
	return &Dispatch{Entries: []DispatchEntry{
		{MaxBlock: 16, Name: "small", Algo: "bruck"},
		{MaxBlock: 256, Name: "mid", Algo: "nonblocking"},
		{MaxBlock: 4096, Name: "large", Algo: "pairwise"},
	}}
}

func TestDispatchValidate(t *testing.T) {
	t.Parallel()
	if err := testDispatch().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		d    *Dispatch
	}{
		{"nil", nil},
		{"empty", &Dispatch{}},
		{"non-ascending", &Dispatch{Entries: []DispatchEntry{
			{MaxBlock: 256, Algo: "bruck"}, {MaxBlock: 16, Algo: "bruck"},
		}}},
		{"duplicate boundary", &Dispatch{Entries: []DispatchEntry{
			{MaxBlock: 16, Algo: "bruck"}, {MaxBlock: 16, Algo: "pairwise"},
		}}},
		{"nonpositive boundary", &Dispatch{Entries: []DispatchEntry{{MaxBlock: 0, Algo: "bruck"}}}},
		{"unknown algo", &Dispatch{Entries: []DispatchEntry{{MaxBlock: 16, Algo: "no-such"}}}},
		{"self-reference", &Dispatch{Entries: []DispatchEntry{{MaxBlock: 16, Algo: "tuned"}}}},
		// system-mpi's vendor overhead scaling is applied per top-level
		// algorithm by the bench harness; dispatched it would run unscaled.
		{"system-mpi winner", &Dispatch{Entries: []DispatchEntry{{MaxBlock: 16, Algo: "system-mpi"}}}},
	}
	for _, tc := range cases {
		if err := tc.d.Validate(); err == nil {
			t.Errorf("%s spec accepted", tc.name)
		}
	}
}

func TestDispatchFingerprint(t *testing.T) {
	t.Parallel()
	var nilSpec *Dispatch
	if nilSpec.Fingerprint() != "" {
		t.Error("nil fingerprint not empty")
	}
	a, b := testDispatch(), testDispatch()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal specs fingerprint differently")
	}
	b.Entries[1].Opts.PPL = 8
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different specs fingerprint equally")
	}
}

// TestTunedRequiresTable checks construction validation.
func TestTunedRequiresTable(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Mapping: mapping(t, 2, 8)}, func(c comm.Comm) error {
		if _, err := New("tuned", c, 64, Options{}); err == nil {
			return fmt.Errorf("tuned without a table accepted")
		}
		bad := &Dispatch{Entries: []DispatchEntry{{MaxBlock: 16, Algo: "no-such"}}}
		if _, err := New("tuned", c, 64, Options{Table: bad}); err == nil {
			return fmt.Errorf("tuned with invalid table accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedLiveCorrectness runs the dispatcher on the live runtime with
// blocks landing in every bucket (and past the last boundary): each
// exchange must produce byte-exact all-to-all results regardless of which
// algorithm serves it.
func TestTunedLiveCorrectness(t *testing.T) {
	t.Parallel()
	const maxBlock = 8192
	blocks := []int{4, 16, 64, 256, 1024, 8192} // 8192 exceeds the last bucket
	err := runtime.Run(runtime.Config{Mapping: mapping(t, 2, 8)}, func(c comm.Comm) error {
		p, rank := c.Size(), c.Rank()
		a, err := New("tuned", c, maxBlock, Options{Table: testDispatch()})
		if err != nil {
			return err
		}
		for _, block := range blocks {
			send := comm.Alloc(p * block)
			recv := comm.Alloc(p * block)
			testutil.FillAlltoall(send, rank, p, block)
			if err := a.Alltoall(send, recv, block); err != nil {
				return fmt.Errorf("block %d: %w", block, err)
			}
			if err := testutil.CheckAlltoall(recv, rank, p, block); err != nil {
				return fmt.Errorf("block %d: %w", block, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedHysteresisAdjacentOnly pins the dispatchBucket edge the band
// math alone would get wrong: with boundaries close together, a block
// nominally two buckets below the current one must switch even though it
// falls inside the hysteresis band of the intermediate boundary.
func TestTunedHysteresisAdjacentOnly(t *testing.T) {
	t.Parallel()
	entries := []DispatchEntry{
		{MaxBlock: 100, Algo: "bruck"},
		{MaxBlock: 120, Algo: "nonblocking"},
		{MaxBlock: 16384, Algo: "pairwise"},
	}
	// 95 B: nominal bucket 0, two below the last; 95 > 0.75*120 would keep
	// bucket 2 if hysteresis applied across the skipped boundary.
	if got := dispatchBucket(entries, 95, 2); got != 0 {
		t.Errorf("bucket(95) from last=2 = %d, want 0", got)
	}
	// 110 B: nominal bucket 1, adjacent below; stays in 2 (110 > 0.75*120).
	if got := dispatchBucket(entries, 110, 2); got != 2 {
		t.Errorf("bucket(110) from last=2 = %d, want 2", got)
	}
}

// TestDispatchBucketExactBoundaries pins dispatchBucket at the exact
// hysteresis edges, size == MaxBlock*(1±tunedHysteresis): the grow edge
// is inclusive (a size exactly 25% past the crossed boundary still stays),
// the shrink edge is exclusive (a size exactly 25% below it switches),
// and a two-bucket jump ignores both bands — for integer sizes as the
// fixed-size dispatcher passes them and fractional means as the
// v-dispatcher computes them.
func TestDispatchBucketExactBoundaries(t *testing.T) {
	t.Parallel()
	entries := []DispatchEntry{
		{MaxBlock: 100, Algo: "pairwise"},
		{MaxBlock: 200, Algo: "nonblocking"},
		{MaxBlock: 400, Algo: "bruck"},
	}
	cases := []struct {
		name string
		size float64
		last int
		want int
	}{
		// Grow edge: boundary 100, band top exactly 125.
		{"grow/exact-edge-stays", 100 * (1 + tunedHysteresis), 0, 0},
		{"grow/just-past-edge-switches", 100*(1+tunedHysteresis) + 1, 0, 1},
		{"grow/fixed-int-edge", float64(int(125)), 0, 0}, // the fixed-size caller's float64(block)
		// Shrink edge: boundary 100, band bottom exactly 75.
		{"shrink/exact-edge-switches", 100 * (1 - tunedHysteresis), 1, 0},
		{"shrink/just-above-edge-stays", 100*(1-tunedHysteresis) + 1, 1, 1},
		{"shrink/fixed-int-edge", float64(int(75)), 1, 0},
		// Unconditional two-bucket jumps, landing inside the intermediate
		// boundary's band on both sides.
		{"shrink/clearly-inside-switches", 125, 2, 1}, // nominal 1 from last=2, well below 0.75*200
		{"jump/up-two", 240, 0, 2},                    // nominal 2, within 25% of the 200 boundary: still jumps
		{"jump/down-two", 95, 2, 0},                   // nominal 0, inside the 100 boundary's band: still jumps
		// No history dispatches nominally, even exactly on a band edge.
		{"fresh/exact-band-top", 125, -1, 1},
		{"fresh/boundary-itself", 100, -1, 0},
		// Fractional means, exactly as tunedV computes them (sum/p).
		{"v/exact-grow-edge", 1000.0 / 8.0, 0, 0},      // 125.0
		{"v/fraction-past-edge", 1001.0 / 8.0, 0, 1},   // 125.125
		{"v/exact-shrink-edge", 600.0 / 8.0, 1, 0},     // 75.0
		{"v/fraction-above-edge", 601.0 / 8.0, 1, 1},   // 75.125
		{"v/last-bucket-overflow", 5000.0 / 8.0, 2, 2}, // beyond every boundary
	}
	for _, tc := range cases {
		if got := dispatchBucket(entries, tc.size, tc.last); got != tc.want {
			t.Errorf("%s: dispatchBucket(%v, last=%d) = %d, want %d", tc.name, tc.size, tc.last, got, tc.want)
		}
	}
}

// TestTunedVFractionalBoundary drives the v-dispatcher end-to-end at the
// exact fractional boundary: all-equal count matrices whose mean payload
// per peer lands exactly on MaxBlock*(1±h).
func TestTunedVFractionalBoundary(t *testing.T) {
	t.Parallel()
	spec := &Dispatch{Op: OpAlltoallv, Entries: []DispatchEntry{
		{MaxBlock: 100, Name: "lo", Algo: "pairwise"},
		{MaxBlock: 400, Name: "hi", Algo: "nonblocking"},
	}}
	err := runtime.Run(runtime.Config{Mapping: mapping(t, 1, 4)}, func(c comm.Comm) error {
		p := c.Size()
		a, err := NewV("tuned", c, 1<<20, Options{Table: spec})
		if err != nil {
			return err
		}
		run := func(per int) error {
			counts := make([]int, p)
			for i := range counts {
				counts[i] = per
			}
			displs, total := DisplsFromCounts(counts)
			send := comm.Alloc(total)
			recv := comm.Alloc(total)
			return a.Alltoallv(send, counts, displs, recv, counts, displs)
		}
		picked := a.(interface{ Picked() string })
		// Establish bucket 0, then sit exactly on the grow edge: mean =
		// 125.0 stays (inclusive), one more byte per peer switches.
		for _, step := range []struct {
			per  int
			want string
		}{{100, "lo"}, {125, "lo"}, {126, "hi"}, {75, "lo"}} {
			if err := run(step.per); err != nil {
				return fmt.Errorf("per=%d: %w", step.per, err)
			}
			if got := picked.Picked(); got != step.want {
				return fmt.Errorf("per=%d picked %q, want %q", step.per, got, step.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedBucketSelection drives the white-box bucket logic: nominal
// picks, lazy instantiation, and hysteresis at boundaries.
func TestTunedBucketSelection(t *testing.T) {
	t.Parallel()
	err := runtime.Run(runtime.Config{Mapping: mapping(t, 1, 2)}, func(c comm.Comm) error {
		a, err := New("tuned", c, 8192, Options{Table: testDispatch()})
		if err != nil {
			return err
		}
		tu := a.(*tuned)
		if tu.Picked() != "" {
			return fmt.Errorf("Picked before any call = %q", tu.Picked())
		}
		run := func(block int) error {
			send := comm.Alloc(c.Size() * block)
			recv := comm.Alloc(c.Size() * block)
			return a.Alltoall(send, recv, block)
		}

		// Nominal dispatch + lazy instantiation: only touched buckets exist.
		if err := run(10); err != nil {
			return err
		}
		if tu.Picked() != "small" {
			return fmt.Errorf("10 B picked %q, want small", tu.Picked())
		}
		if _, ok := tu.insts[instKey{0, "small"}]; !ok || len(tu.insts) != 1 {
			return fmt.Errorf("lazy instantiation broken: %v", tu.insts)
		}
		// Hysteresis: 17 B nominally lands in "mid" but is within 25% of
		// the 16 B boundary, so the dispatcher stays in "small"...
		if err := run(17); err != nil {
			return err
		}
		if tu.Picked() != "small" {
			return fmt.Errorf("17 B after 10 B picked %q, want small (hysteresis)", tu.Picked())
		}
		// ...while 64 B is clearly beyond it and switches.
		if err := run(64); err != nil {
			return err
		}
		if tu.Picked() != "mid" {
			return fmt.Errorf("64 B picked %q, want mid", tu.Picked())
		}
		// Coming back down: 15 B is within 25% below the boundary, stays.
		if err := run(15); err != nil {
			return err
		}
		if tu.Picked() != "mid" {
			return fmt.Errorf("15 B after 64 B picked %q, want mid (hysteresis)", tu.Picked())
		}
		// 8 B is clearly inside "small" again.
		if err := run(8); err != nil {
			return err
		}
		if tu.Picked() != "small" {
			return fmt.Errorf("8 B picked %q, want small", tu.Picked())
		}
		// Hysteresis is adjacent-boundary only: from "large", a small
		// block two buckets down switches unconditionally, even if it sits
		// inside the hysteresis band of an intermediate boundary.
		if err := run(2048); err != nil {
			return err
		}
		if tu.Picked() != "large" {
			return fmt.Errorf("2048 B picked %q, want large", tu.Picked())
		}
		if err := run(13); err != nil { // nominal "small", 13 > 0.75*16
			return err
		}
		if tu.Picked() != "small" {
			return fmt.Errorf("13 B after 2048 B picked %q, want small (multi-bucket jump)", tu.Picked())
		}
		// A fresh dispatcher has no history: 17 B goes straight to "mid".
		b, err := New("tuned", c, 8192, Options{Table: testDispatch()})
		if err != nil {
			return err
		}
		send := comm.Alloc(c.Size() * 17)
		recv := comm.Alloc(c.Size() * 17)
		if err := b.Alltoall(send, recv, 17); err != nil {
			return err
		}
		if got := b.(*tuned).Picked(); got != "mid" {
			return fmt.Errorf("fresh dispatcher at 17 B picked %q, want mid", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTunedFailedBuildReportsEntry: when a bucket's instance cannot be
// constructed, the call fails and Picked and Phases describe that entry —
// Picked names it, Phases is empty — in static and refinement mode alike,
// on both front ends, instead of the previous call's entry.
func TestTunedFailedBuildReportsEntry(t *testing.T) {
	t.Parallel()
	spec := func(op Op, algo string, opts Options) *Dispatch {
		return &Dispatch{Op: op, Entries: []DispatchEntry{
			{MaxBlock: 16, Name: "ok", Algo: "pairwise"},
			{MaxBlock: 1024, Name: "bad", Algo: algo, Opts: opts},
		}}
	}
	// call runs one exchange of size bytes per peer.
	type caller func(size int) error
	type result interface {
		Picked() string
		Phases() map[trace.Phase]float64
	}
	fronts := []struct {
		name    string
		wantErr string
		build   func(c comm.Comm, online *OnlineConfig) (result, caller, error)
	}{
		{"New", "core: tuned bucket <=1024 B (bad): core: Options.PPL=3 invalid",
			func(c comm.Comm, online *OnlineConfig) (result, caller, error) {
				a, err := New("tuned", c, 1024, Options{Table: spec(OpAlltoall, "multileader", Options{PPL: 3}), Online: online})
				if err != nil {
					return nil, nil, err
				}
				return a.(result), func(size int) error {
					return a.Alltoall(comm.Alloc(c.Size()*size), comm.Alloc(c.Size()*size), size)
				}, nil
			}},
		{"NewV", "core: tuned bucket <=1024 B/peer (bad): core: Options.PPG=3 invalid",
			func(c comm.Comm, online *OnlineConfig) (result, caller, error) {
				p := c.Size()
				a, err := NewV("tuned", c, p*1024, Options{Table: spec(OpAlltoallv, "locality-aware", Options{PPG: 3}), Online: online})
				if err != nil {
					return nil, nil, err
				}
				return a.(result), func(size int) error {
					counts := make([]int, p)
					for i := range counts {
						counts[i] = size
					}
					displs, total := DisplsFromCounts(counts)
					return a.Alltoallv(comm.Alloc(total), counts, displs, comm.Alloc(total), counts, displs)
				}, nil
			}},
	}
	for _, fe := range fronts {
		for _, online := range []*OnlineConfig{nil, {}} {
			err := runtime.Run(runtime.Config{Mapping: mapping(t, 2, 4)}, func(c comm.Comm) error {
				a, call, err := fe.build(c, online)
				if err != nil {
					return err
				}
				if err := call(8); err != nil {
					return fmt.Errorf("8 B call: %w", err)
				}
				err = call(512)
				if err == nil || !strings.Contains(err.Error(), fe.wantErr) {
					return fmt.Errorf("512 B call error %v, want %q", err, fe.wantErr)
				}
				if got := a.Picked(); got != "bad" {
					return fmt.Errorf("Picked after failed build = %q, want bad", got)
				}
				if ph := a.Phases(); ph != nil {
					return fmt.Errorf("Phases after failed build = %v, want nil", ph)
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s online=%v: %v", fe.name, online != nil, err)
			}
		}
	}
}
