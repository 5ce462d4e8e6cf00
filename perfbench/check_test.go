package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"alltoallx/internal/comm"
)

// corruptingComm flips the first received byte of every Sendrecv on one
// rank, standing in for an algorithm that delivers a wrong byte.
type corruptingComm struct {
	comm.Comm
	victim int
}

func (c corruptingComm) Sendrecv(sb comm.Buffer, dst, stag int, rb comm.Buffer, src, rtag int) error {
	err := c.Comm.Sendrecv(sb, dst, stag, rb, src, rtag)
	if c.Rank() == c.victim && rb.Len() > 0 {
		rb.Bytes()[0] ^= 0xff
	}
	return err
}

// TestCorruptedReceiveCountsAsFailure runs a live job whose receive buffers
// are corrupted on one rank and checks that every exchange is counted as
// attempted and failed, while a clean run of the same job fails nothing.
func TestCorruptedReceiveCountsAsFailure(t *testing.T) {
	seq := liveSequence(1, 3, 0)
	for _, corrupt := range []bool{false, true} {
		j := liveJob{cell: "test/pairwise", algo: "pairwise", maxBlock: smallBlock, seq: seq}
		if corrupt {
			j.wrap = func(c comm.Comm) comm.Comm { return corruptingComm{Comm: c, victim: 5} }
		}
		res, err := j.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		p := &pass{res: &passResult{}}
		lat := res.record(p, seq, smallBlock)
		wantFailed := 0
		if corrupt {
			wantFailed = len(seq)
		}
		if p.res.Attempted != len(seq) || p.res.Failed != wantFailed || len(lat) != len(seq) {
			t.Errorf("corrupt=%v: attempted %d failed %d (%d latencies), want %d attempted, %d failed",
				corrupt, p.res.Attempted, p.res.Failed, len(lat), len(seq), wantFailed)
		}
		if corrupt && (len(p.res.Errors) == 0 || !strings.Contains(p.res.Errors[0], "rank 5")) {
			t.Errorf("failure does not name the corrupted rank: %q", p.res.Errors)
		}
	}
}

func TestLiveSequence(t *testing.T) {
	a, b := liveSequence(7, liveSmall, liveLarge), liveSequence(7, liveSmall, liveLarge)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different block orders")
	}
	if slices.Equal(a, liveSequence(8, liveSmall, liveLarge)) {
		t.Error("different seeds gave the same block order")
	}
	if n := len(a); n != liveSmall+liveLarge {
		t.Fatalf("sequence has %d blocks, want %d", n, liveSmall+liveLarge)
	}
	small := 0
	for _, b := range a {
		if b == smallBlock {
			small++
		}
	}
	if small != liveSmall {
		t.Errorf("sequence has %d small blocks, want %d", small, liveSmall)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code that
// emits its metrics in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, workloadNames())
	}
	e2e := make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	want := make(map[string]string)
	for k, m := range endToEndMetrics([]passResult{{}}) {
		want[k] = m.Unit
	}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, want)
	}
	var layers []layerMetric
	for _, m := range spec.PerLayer {
		layers = append(layers, layerMetric{m.Name, m.Unit})
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's list:\n json %v\n code %v", layers, perLayer)
	}
}
