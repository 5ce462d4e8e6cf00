package sched

import (
	"fmt"
	"sort"

	"alltoallx/internal/topo"
)

// genRegistry is the registry of schedule generators, each a rank
// compiler that writes one rank's program as a source. The classic
// all-to-all algorithms (direct, pairwise, bruck) are compiled straight
// into the IR; the direct-connect families (ring, torus, hypercube) are
// compiled from per-block routes (routeslice.go) — schedules the
// loop-coded core algorithms cannot express.
var genRegistry = map[string]rankSource{
	"direct":    directSource,
	"pairwise":  pairwiseSource,
	"bruck":     bruckSource,
	"ring":      ringSource,
	"torus":     torusSource,
	"hypercube": hypercubeSource,
}

// Generators returns the generator names, sorted — the set core
// registers as sched:* algorithms.
func Generators() []string {
	names := make([]string, 0, len(genRegistry))
	for n := range genRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MaxRanks is the largest world a schedule can address: block identities
// are packed as int32(src*p + dst), so p*p must stay below 2^31
// (floor(sqrt(2^31 - 1))). The generators and decoders reject larger
// worlds by name instead of silently wrapping ids negative.
const MaxRanks = 46340

// checkRanks validates a world size against MaxRanks.
func checkRanks(p int) error {
	if p <= 0 {
		return fmt.Errorf("sched: rank count must be positive, got %d", p)
	}
	if p > MaxRanks {
		return fmt.Errorf("sched: %d ranks exceeds the schedule id width (max %d ranks: block ids are int32 src*p+dst)", p, MaxRanks)
	}
	return nil
}

// generator looks up the named generator for a p-rank world.
func generator(name string, p int) (rankSource, error) {
	gen, ok := genRegistry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown generator %q (have %v)", name, Generators())
	}
	return gen, checkRanks(p)
}

// GenerateWorld compiles the named world for p ranks (m may be nil):
// every rank's GenerateRank program, indexed by rank.
func GenerateWorld(name string, p int, m *topo.Mapping) ([]*RankProgram, error) {
	if _, err := generator(name, p); err != nil {
		return nil, err
	}
	world := make([]*RankProgram, p)
	for r := range world {
		var err error
		if world[r], err = GenerateRank(name, p, r, m); err != nil {
			return nil, err
		}
	}
	return world, nil
}

// sendRef/recvRef/scratchRef are small constructors for readable
// generators.
func sendRef(off, n int) Ref { return Ref{Buf: SpaceSend, Off: int32(off), N: int32(n)} }
func recvRef(off, n int) Ref { return Ref{Buf: SpaceRecv, Off: int32(off), N: int32(n)} }
func scratchRef(i, off, n int) Ref {
	return Ref{Buf: int32(SpaceScratch + i), Off: int32(off), N: int32(n)}
}

// selfCopy returns the step delivering rank r's own block.
func selfCopy(r int) Step {
	return Step{Kind: Copy, Src: sendRef(r, 1), Dst: recvRef(r, 1)}
}

// alltoall is rank r's source of an all-to-all program.
func alltoall(name string, p, r int, scratch []int, phases ...phase) *source {
	return &source{hdr: RankProgram{Format: FormatVersion, Name: name, Ranks: p, Rank: r, Scratch: scratch}, phases: phases}
}

// directSource is rank r's single round of the spread direct exchange
// (the nonblocking algorithm): all p-1 receives posted first, then all
// p-1 sends, in spread order (peer r±i) to avoid hotspots.
func directSource(p, r int, _ *topo.Mapping) (*source, error) {
	return alltoall("direct", p, r, nil, phase{1, func(_ int, steps []Step) []Step {
		steps = append(steps, selfCopy(r))
		for i := 1; i < p; i++ {
			from := (r - i + p) % p
			steps = append(steps, Step{Kind: Recv, From: int32(from), Dst: recvRef(from, 1)})
		}
		for i := 1; i < p; i++ {
			to := (r + i) % p
			steps = append(steps, Step{Kind: Send, To: int32(to), Src: sendRef(to, 1)})
		}
		return steps
	}}), nil
}

// pairwiseSource is rank r's program of Algorithm 1: a self-copy round
// followed by p-1 rounds, each one SendRecv with disjoint partners (send
// to r+i, receive from r-i).
func pairwiseSource(p, r int, _ *topo.Mapping) (*source, error) {
	return alltoall("pairwise", p, r, nil, selfPhase(r), phase{p - 1, func(t int, steps []Step) []Step {
		to, from := (r+t+1)%p, (r-t-1+p)%p
		return append(steps, Step{Kind: SendRecv, To: int32(to), Src: sendRef(to, 1), From: int32(from), Dst: recvRef(from, 1)})
	}}), nil
}

// selfPhase is rank r's round delivering its own block.
func selfPhase(r int) phase {
	return phase{1, func(_ int, steps []Step) []Step { return append(steps, selfCopy(r)) }}
}

// bruckPlan computes the exchange rounds ks (k = 1, 2, 4, ...) and the
// widest exchange h: the largest count of indices in [0,p) with bit k
// set, over the rounds.
func bruckPlan(p int) (ks []int, h int) {
	for k := 1; k < p; k <<= 1 {
		ks = append(ks, k)
		m := 0
		for i := 0; i < p; i++ {
			if i&k != 0 {
				m++
			}
		}
		if m > h {
			h = m
		}
	}
	return ks, h
}

// bruckScratch is the Bruck scratch layout: 0 = rotation buffer (p
// blocks), 1 = pack-send, 2/3 = alternating pack-recv.
const (
	bruckTmp   = 0
	bruckPackS = 1
	bruckPackA = 2
)

// bruckUnpack appends the copies restoring round ki's received blocks
// from its pack-recv buffer into the rotation buffer (identical on every
// rank).
func bruckUnpack(steps []Step, p, k, ki int) []Step {
	buf := bruckPackA + ki%2
	m := 0
	for i := 0; i < p; i++ {
		if i&k != 0 {
			steps = append(steps, Step{Kind: Copy, Src: scratchRef(buf, m, 1), Dst: scratchRef(bruckTmp, i, 1)})
			m++
		}
	}
	return steps
}

// bruckSource is rank r's program of the Bruck algorithm: a rotation
// round (local block i becomes the data destined to rank r+i), ceil(log2
// p) exchange rounds each packing the blocks whose index has bit k set,
// and a final unpack + inverse-rotation round (local block i holds the
// data from rank r-i). Receive staging is double-buffered so an exchange
// round never receives into the buffer its unpack copies are still
// reading — the race the verifier rejects.
func bruckSource(p, r int, m *topo.Mapping) (*source, error) {
	if p == 1 {
		return pairwiseSource(p, r, m)
	}
	ks, h := bruckPlan(p)
	rotate := phase{1, func(_ int, steps []Step) []Step {
		steps = append(steps, Step{Kind: Copy, Src: sendRef(r, p-r), Dst: scratchRef(bruckTmp, 0, p-r)})
		if r > 0 {
			steps = append(steps, Step{Kind: Copy, Src: sendRef(0, r), Dst: scratchRef(bruckTmp, p-r, r)})
		}
		return steps
	}}
	exchange := phase{len(ks), func(ki int, steps []Step) []Step {
		k := ks[ki]
		if ki > 0 {
			steps = bruckUnpack(steps, p, ks[ki-1], ki-1)
		}
		m := 0
		for i := 0; i < p; i++ {
			if i&k != 0 {
				steps = append(steps, Step{Kind: Copy, Src: scratchRef(bruckTmp, i, 1), Dst: scratchRef(bruckPackS, m, 1)})
				m++
			}
		}
		return append(steps, Step{
			Kind: SendRecv,
			To:   int32((r + k) % p), Src: scratchRef(bruckPackS, 0, m),
			From: int32((r - k + p) % p), Dst: scratchRef(bruckPackA+ki%2, 0, m),
		})
	}}
	final := phase{1, func(_ int, steps []Step) []Step {
		steps = bruckUnpack(steps, p, ks[len(ks)-1], len(ks)-1)
		for i := 0; i < p; i++ {
			steps = append(steps, Step{Kind: Copy, Src: scratchRef(bruckTmp, i, 1), Dst: recvRef((r-i+p)%p, 1)})
		}
		return steps
	}}
	return alltoall("bruck", p, r, []int{p, h, h, h}, rotate, exchange, final), nil
}
