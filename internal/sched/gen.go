package sched

import (
	"fmt"
	"sort"

	"alltoallx/internal/topo"
)

// Generator compiles an all-to-all schedule for p ranks. The mapping is
// the world topology when known (nil otherwise); topology-aware
// generators (torus) shape themselves from it.
type Generator func(p int, m *topo.Mapping) (*Schedule, error)

// genEntry couples a generator's collective kind with its whole-world
// and rank-sliced compilers (one sliced implementation per generator; a
// test pins every entry complete).
type genEntry struct {
	coll  Coll
	whole Generator
	rank  rankGenerator
}

// genRegistry is the registry of schedule generators. The classic
// all-to-all algorithms (direct, pairwise, bruck) are compiled straight
// into the IR; the direct-connect families (ring, torus, hypercube) are
// compiled from per-block routes — schedules the loop-coded core
// algorithms cannot express. The rs-*/ar-* families compile
// reduce-scatter and allreduce onto the same topologies (reduce.go).
var genRegistry = map[string]genEntry{
	"direct":    {CollAlltoall, Direct, directRank},
	"pairwise":  {CollAlltoall, Pairwise, pairwiseRank},
	"bruck":     {CollAlltoall, Bruck, bruckRank},
	"ring":      {CollAlltoall, Ring, ringRank},
	"torus":     {CollAlltoall, Torus, torusRank},
	"hypercube": {CollAlltoall, Hypercube, hypercubeRank},

	"rs-ring":      {CollReduceScatter, RingReduceScatter, ringReduceScatterRank},
	"rs-torus":     {CollReduceScatter, TorusReduceScatter, torusReduceScatterRank},
	"rs-hypercube": {CollReduceScatter, HypercubeReduceScatter, hypercubeReduceScatterRank},
	"ar-ring":      {CollAllreduce, RingAllreduce, ringAllreduceRank},
	"ar-torus":     {CollAllreduce, TorusAllreduce, torusAllreduceRank},
	"ar-hypercube": {CollAllreduce, HypercubeAllreduce, hypercubeAllreduceRank},
}

// Generators returns the all-to-all generator names, sorted — the set
// core registers as sched:* all-to-all algorithms. Reduction generators
// are listed by GeneratorsFor/AllGenerators and reach core through the
// collx registries instead.
func Generators() []string { return GeneratorsFor(CollAlltoall) }

// AllGenerators returns every generator name, sorted.
func AllGenerators() []string {
	names := make([]string, 0, len(genRegistry))
	for n := range genRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GeneratorsFor returns the names of the generators compiling the given
// collective, sorted.
func GeneratorsFor(coll Coll) []string {
	var names []string
	for n, e := range genRegistry {
		if e.coll == coll {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// GeneratorColl reports the collective a named generator compiles, and
// whether the name is known.
func GeneratorColl(name string) (Coll, bool) {
	e, ok := genRegistry[name]
	return e.coll, ok
}

// MaxRanks is the largest world a schedule can address: block identities
// are packed as int32(src*p + dst), so p*p must stay below 2^31
// (floor(sqrt(2^31 - 1))). Generate and GenerateRank reject larger
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

// Generate compiles the named schedule for p ranks (m may be nil).
func Generate(name string, p int, m *topo.Mapping) (*Schedule, error) {
	e, ok := genRegistry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown generator %q (have %v)", name, AllGenerators())
	}
	if err := checkRanks(p); err != nil {
		return nil, err
	}
	return e.whole(p, m)
}

// sendRef/recvRef/scratchRef are small constructors for readable
// generators.
func sendRef(off, n int) Ref       { return Ref{Buf: SpaceSend, Off: off, N: n} }
func recvRef(off, n int) Ref       { return Ref{Buf: SpaceRecv, Off: off, N: n} }
func scratchRef(i, off, n int) Ref { return Ref{Buf: SpaceScratch + i, Off: off, N: n} }

// selfCopy returns the step delivering rank r's own block.
func selfCopy(r int) Step {
	return Step{Kind: Copy, Src: sendRef(r, 1), Dst: recvRef(r, 1)}
}

// withRounds fills s.Rounds from every rank's rounds, giving a rank with
// fewer rounds than the longest an empty step list in the rest, and
// returns s.
func withRounds(s *Schedule, rounds func(r int) [][]Step) *Schedule {
	perRank := make([][][]Step, s.Ranks)
	for r := range perRank {
		perRank[r] = rounds(r)
		for len(s.Rounds) < len(perRank[r]) {
			s.Rounds = append(s.Rounds, Round{Steps: make([][]Step, s.Ranks)})
		}
	}
	for ri := range s.Rounds {
		for r, rs := range perRank {
			if ri < len(rs) {
				s.Rounds[ri].Steps[r] = rs[ri]
			}
		}
	}
	return s
}

// The classic generators are built from per-rank step builders: Generate
// assembles all p ranks' rounds into a Schedule, GenerateRank emits
// exactly one rank's rounds as a RankProgram (O(p) work for
// direct/pairwise, O(p log p) for bruck) without ever materializing the
// whole world.

// directSteps is rank r's single round of the spread direct exchange: all
// p-1 receives posted first, then all p-1 sends, in spread order (peer
// r±i) to avoid hotspots.
func directSteps(p, r int) []Step {
	steps := []Step{selfCopy(r)}
	for i := 1; i < p; i++ {
		from := (r - i + p) % p
		steps = append(steps, Step{Kind: Recv, From: from, Dst: recvRef(from, 1)})
	}
	for i := 1; i < p; i++ {
		to := (r + i) % p
		steps = append(steps, Step{Kind: Send, To: to, Src: sendRef(to, 1)})
	}
	return steps
}

// Direct compiles the spread direct exchange (the nonblocking algorithm):
// a single round in which every rank posts all p-1 receives, then all p-1
// sends.
func Direct(p int, _ *topo.Mapping) (*Schedule, error) {
	return withRounds(&Schedule{Format: FormatVersion, Name: "direct", Ranks: p},
		func(r int) [][]Step { return [][]Step{directSteps(p, r)} }), nil
}

func directRank(p, r int, _ *topo.Mapping) (*RankProgram, error) {
	return &RankProgram{Format: FormatVersion, Name: "direct", Ranks: p, Rank: r,
		Rounds: [][]Step{directSteps(p, r)}}, nil
}

// pairwiseSteps is rank r's single step of pairwise round i (1 <= i < p):
// one SendRecv with disjoint partners (send to r+i, receive from r-i).
func pairwiseSteps(p, r, i int) []Step {
	to := (r + i) % p
	from := (r - i + p) % p
	return []Step{{Kind: SendRecv, To: to, Src: sendRef(to, 1), From: from, Dst: recvRef(from, 1)}}
}

// Pairwise compiles Algorithm 1: a self-copy round followed by p-1
// rounds, each one SendRecv per rank with disjoint partners.
func Pairwise(p int, _ *topo.Mapping) (*Schedule, error) {
	return withRounds(&Schedule{Format: FormatVersion, Name: "pairwise", Ranks: p},
		func(r int) [][]Step { return pairwiseRounds(p, r) }), nil
}

// pairwiseRounds is rank r's self-copy round and p-1 exchange rounds.
func pairwiseRounds(p, r int) [][]Step {
	rounds := [][]Step{{selfCopy(r)}}
	for i := 1; i < p; i++ {
		rounds = append(rounds, pairwiseSteps(p, r, i))
	}
	return rounds
}

func pairwiseRank(p, r int, _ *topo.Mapping) (*RankProgram, error) {
	return &RankProgram{Format: FormatVersion, Name: "pairwise", Ranks: p, Rank: r, Rounds: pairwiseRounds(p, r)}, nil
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

// bruckRotateSteps is rank r's round 0: rotate so local block i is the
// data destined to rank r+i (two contiguous copies per rank).
func bruckRotateSteps(p, r int) []Step {
	steps := []Step{{Kind: Copy, Src: sendRef(r, p-r), Dst: scratchRef(bruckTmp, 0, p-r)}}
	if r > 0 {
		steps = append(steps, Step{Kind: Copy, Src: sendRef(0, r), Dst: scratchRef(bruckTmp, p-r, r)})
	}
	return steps
}

// bruckUnpackSteps appends the copies restoring round ki's received
// blocks from its pack-recv buffer into the rotation buffer (identical on
// every rank).
func bruckUnpackSteps(steps []Step, p int, ks []int, ki int) []Step {
	k := ks[ki]
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

// bruckExchangeSteps is rank r's steps of exchange round ki: unpack the
// previous round (ki > 0), pack the blocks whose index has bit ks[ki]
// set, and exchange with the partners ±ks[ki].
func bruckExchangeSteps(p int, ks []int, ki, r int) []Step {
	k := ks[ki]
	steps := make([]Step, 0, p+1) // at most p/2 unpacks, p/2 packs and the exchange
	if ki > 0 {
		steps = bruckUnpackSteps(steps, p, ks, ki-1)
	}
	m := 0
	for i := 0; i < p; i++ {
		if i&k != 0 {
			steps = append(steps, Step{Kind: Copy, Src: scratchRef(bruckTmp, i, 1), Dst: scratchRef(bruckPackS, m, 1)})
			m++
		}
	}
	to := (r + k) % p
	from := (r - k + p) % p
	steps = append(steps, Step{
		Kind: SendRecv,
		To:   to, Src: scratchRef(bruckPackS, 0, m),
		From: from, Dst: scratchRef(bruckPackA+ki%2, 0, m),
	})
	return steps
}

// bruckFinalSteps is rank r's final round: unpack the last exchange, then
// invert the rotation — local block i holds the data from rank r-i.
func bruckFinalSteps(p int, ks []int, r int) []Step {
	steps := bruckUnpackSteps(make([]Step, 0, p+(p+1)/2), p, ks, len(ks)-1)
	for i := 0; i < p; i++ {
		src := (r - i + p) % p
		steps = append(steps, Step{Kind: Copy, Src: scratchRef(bruckTmp, i, 1), Dst: recvRef(src, 1)})
	}
	return steps
}

// Bruck compiles the Bruck algorithm: a rotation round, ceil(log2 p)
// exchange rounds each packing the blocks whose index has bit k set, and
// a final unpack + inverse-rotation round. Receive staging is
// double-buffered so an exchange round never receives into the buffer its
// unpack copies are still reading — the race the verifier rejects.
func Bruck(p int, _ *topo.Mapping) (*Schedule, error) {
	if p == 1 {
		return Pairwise(p, nil)
	}
	_, h := bruckPlan(p)
	return withRounds(&Schedule{Format: FormatVersion, Name: "bruck", Ranks: p, Scratch: []int{p, h, h, h}},
		func(r int) [][]Step { return bruckRounds(p, r) }), nil
}

// bruckRounds is rank r's rotation round, exchange rounds and final
// round.
func bruckRounds(p, r int) [][]Step {
	ks, _ := bruckPlan(p)
	rounds := [][]Step{bruckRotateSteps(p, r)}
	for ki := range ks {
		rounds = append(rounds, bruckExchangeSteps(p, ks, ki, r))
	}
	return append(rounds, bruckFinalSteps(p, ks, r))
}

func bruckRank(p, r int, m *topo.Mapping) (*RankProgram, error) {
	if p == 1 {
		return pairwiseRank(p, r, m)
	}
	_, h := bruckPlan(p)
	return &RankProgram{Format: FormatVersion, Name: "bruck", Ranks: p, Rank: r, Scratch: []int{p, h, h, h},
		Rounds: bruckRounds(p, r)}, nil
}
