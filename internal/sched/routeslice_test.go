package sched

import (
	"slices"
	"strings"
	"testing"
)

// TestRouteTransitLayout pins the route families' scratch layout. Every
// rank program declares [(rounds-1)*packMax, packMax, packMax, packMax]
// blocks, where packMax is the most blocks any rank of the world packs or
// receives in one round. Each transit slot is written at most once per
// program and read only in the round that wrote it. The 256-rank worlds
// declare at most p^2/8 scratch blocks per rank.
func TestRouteTransitLayout(t *testing.T) {
	t.Parallel()
	var ws []goldenWorld
	for _, p := range []int{2, 5, 8, 16, 64} {
		ws = append(ws, goldenWorld{"ring", 0, p}, goldenWorld{"torus", 0, p})
	}
	for p := 2; p <= 256; p *= 2 {
		ws = append(ws, goldenWorld{"hypercube", 0, p})
	}
	ws = append(ws, goldenWorld{"torus", 4, 8}, goldenWorld{"torus", 16, 16})
	const transit = SpaceScratch + routeTransit
	for _, w := range ws {
		p, m := w.world(t)
		declared, packed := -1, 0
		for r := 0; r < p; r++ {
			rp, err := GenerateRank(w.name, p, r, m)
			if err != nil {
				t.Fatalf("%v rank %d: %v", w, r, err)
			}
			if len(rp.Scratch) != 4 {
				t.Fatalf("%v rank %d: scratch %v, want 4 spaces", w, r, rp.Scratch)
			}
			mp := rp.Scratch[routePackS]
			if want := []int{(len(rp.Rounds) - 1) * mp, mp, mp, mp}; !slices.Equal(rp.Scratch, want) {
				t.Fatalf("%v rank %d: scratch %v, want %v", w, r, rp.Scratch, want)
			}
			if declared >= 0 && mp != declared {
				t.Fatalf("%v rank %d: packMax %d, rank 0 declares %d", w, r, mp, declared)
			}
			declared = mp
			if n := rp.Stats().ScratchBlocks; p == 256 && n > p*p/8 {
				t.Fatalf("%v rank %d: %d scratch blocks, want at most p^2/8 = %d", w, r, n, p*p/8)
			}
			wrote := make(map[int32]int) // transit slot -> round that wrote it
			for ri, steps := range rp.Rounds {
				sent, recvd := 0, 0
				for si, st := range steps {
					switch st.Kind {
					case Send:
						sent += int(st.Src.N)
					case Recv:
						recvd += int(st.Dst.N)
					}
					for k := int32(0); st.Src.Buf == transit && k < st.Src.N; k++ {
						if at, ok := wrote[st.Src.Off+k]; !ok || at != ri {
							t.Fatalf("%v rank %d round %d step %d reads transit slot %d, not written earlier in the round", w, r, ri, si, st.Src.Off+k)
						}
					}
					for k := int32(0); st.Dst.Buf == transit && k < st.Dst.N; k++ {
						if at, ok := wrote[st.Dst.Off+k]; ok {
							t.Fatalf("%v rank %d round %d step %d writes transit slot %d again (first written in round %d)", w, r, ri, si, st.Dst.Off+k, at)
						}
						wrote[st.Dst.Off+k] = ri
					}
				}
				packed = max(packed, sent, recvd)
			}
		}
		if packed != declared {
			t.Fatalf("%v: packMax %d, but the most blocks a rank packs or receives in one round is %d", w, declared, packed)
		}
	}
}

// strandSlicer routes one block, (1->1) of a 2-rank world, out of rank 0
// in round 1 without ever delivering it there.
type strandSlicer struct{}

func (strandSlicer) rounds() int         { return 2 }
func (strandSlicer) packMax() int        { return 1 }
func (strandSlicer) ins(x, t int) []rmsg { return nil }
func (strandSlicer) outs(x, t int) []rmsg {
	if x == 0 && t == 1 {
		return []rmsg{{peer: 1, blocks: []int32{1*2 + 1}}}
	}
	return nil
}

// TestRouteSourcePanicsOnStrandedBlock: a slicer that forwards a block
// the rank never received is a generator bug, and compiling the round
// panics naming the block instead of reading some other transit slot.
func TestRouteSourcePanicsOnStrandedBlock(t *testing.T) {
	t.Parallel()
	src := routeSource("strand", 2, 0, strandSlicer{})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "block (1->1) departs but did not arrive in round 0") {
			t.Fatalf("recovered %q, want the stranded block named", msg)
		}
	}()
	src.round(1, nil)
}

// BenchmarkRouteSchedules measures the schedule layer of the torus and
// hypercube families at 256 ranks: compile compiles every rank's program
// (GenerateRank), prove proves the world (Prove). Run it with -benchmem;
// each sub-benchmark also reports the scratch blocks one rank program
// declares.
func BenchmarkRouteSchedules(b *testing.B) {
	for _, w := range []goldenWorld{{"torus", 16, 16}, {"hypercube", 0, 256}} {
		p, m := w.world(b)
		rp, err := GenerateRank(w.name, p, 0, m)
		if err != nil {
			b.Fatal(err)
		}
		scratch := float64(rp.Stats().ScratchBlocks)
		b.Run(w.String()+"/compile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < p; r++ {
					if _, err := GenerateRank(w.name, p, r, m); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(scratch, "scratch-blocks/rank")
		})
		b.Run(w.String()+"/prove", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Prove(w.name, p, m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(scratch, "scratch-blocks/rank")
		})
	}
}
