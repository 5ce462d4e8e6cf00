// Reduction-schedule generators: reduce-scatter and allreduce compiled
// onto the same direct-connect topologies as the all-to-all families
// (ring, 2D torus, hypercube). Every generator is built from a per-rank
// rounds builder shared between the whole-world compiler and the
// rank-sliced compiler, so GenerateRank is byte-identical to
// Slice(Generate(...)) by construction.
//
// The schedules are operator-generic: a reduce-scatter or allreduce
// schedule is valid for any associative, commutative operator, so the
// generators label them OpAny and the executor applies whichever
// operator the caller installs (Exec.SetOp).
//
//   - rs-ring / ar-ring: the classic bucket algorithm — p-1 rounds of
//     one-block reduce-and-forward around the ring (each rank's chunk
//     accumulates contributions as it travels), allreduce appending a
//     p-1-round ring allgather.
//   - rs-torus / ar-torus: the two-phase decomposition on the rows x cols
//     torus — pack into column-major order, ring reduce-scatter along the
//     row ring (rows-block chunks), then along the column ring
//     (one-block chunks); allreduce allgathers back along both rings and
//     unpacks.
//   - rs-hypercube / ar-hypercube: recursive halving (p a power of two) —
//     round t exchanges the halves of the surviving index range across
//     dimension k-1-t and folds the kept half into an accumulator;
//     allreduce appends the mirror recursive-doubling allgather.
package sched

import (
	"fmt"
	"math/bits"

	"alltoallx/internal/topo"
)

// assembleReduce builds a whole-world reduction schedule from a per-rank
// rounds builder.
func assembleReduce(name string, coll Coll, p int, scratch []int, rounds func(r int) [][]Step) *Schedule {
	return withRounds(&Schedule{Format: FormatVersion, Name: name, Ranks: p, Coll: coll, Op: OpAny, Scratch: scratch}, rounds)
}

// reduceRank wraps one rank's rounds as a RankProgram with the same
// header fields assembleReduce emits, keeping the Slice identity exact.
func reduceRank(name string, coll Coll, p, r int, scratch []int, rounds [][]Step) *RankProgram {
	return &RankProgram{Format: FormatVersion, Name: name, Ranks: p, Rank: r,
		Coll: coll, Op: OpAny, Scratch: scratch, Rounds: rounds}
}

// reduceStep builds the Dst = Dst op Src combine step with the bundled
// generators' operator label.
func reduceStep(dst, src Ref) Step {
	return Step{Kind: Reduce, Src: src, Dst: dst, Op: OpAny}
}

// ringRSRounds emits the rounds of a ring reduce-scatter among q ring
// members for the member at index idx. Member c's chunk is chunk(c)
// (blocks blocks); next/prev are the world ranks of the ring neighbors;
// stageA/stageB are two scratch spaces of blocks blocks used as
// alternating accumulators; the fully reduced own chunk lands at dst.
//
// Round 0 sends chunk idx-1 onward; round t reduces the local
// contribution of chunk idx-1-t into the partial received last round and
// forwards it; after q-1 wire rounds the partial for chunk idx has
// visited every member, and a final round folds in the local
// contribution and copies the result to dst. q == 1 degenerates to a
// single local copy.
func ringRSRounds(q, idx, next, prev, blocks, stageA, stageB int, chunk func(c int) Ref, dst Ref) [][]Step {
	if q == 1 {
		return [][]Step{{{Kind: Copy, Src: chunk(idx), Dst: dst}}}
	}
	stage := func(t int) Ref {
		if t%2 == 0 {
			return scratchRef(stageA, 0, blocks)
		}
		return scratchRef(stageB, 0, blocks)
	}
	rounds := [][]Step{{
		{Kind: Recv, From: prev, Dst: stage(0)},
		{Kind: Send, To: next, Src: chunk(((idx-1)%q + q) % q)},
	}}
	for t := 1; t <= q-2; t++ {
		acc := stage(t - 1)
		rounds = append(rounds, []Step{
			{Kind: Recv, From: prev, Dst: stage(t)},
			reduceStep(acc, chunk(((idx-1-t)%q+q)%q)),
			{Kind: Send, To: next, Src: acc},
		})
	}
	acc := stage(q - 2)
	rounds = append(rounds, []Step{
		reduceStep(acc, chunk(idx)),
		{Kind: Copy, Src: acc, Dst: dst},
	})
	return rounds
}

// ringAGRounds emits the q-1 ring allgather rounds: member idx owns
// chunk(idx) going in, and after the rounds every member holds all q
// chunks (chunk c must already hold valid data at member c).
func ringAGRounds(q, idx, next, prev int, chunk func(c int) Ref) [][]Step {
	var rounds [][]Step
	for t := 0; t <= q-2; t++ {
		rounds = append(rounds, []Step{
			{Kind: Recv, From: prev, Dst: chunk(((idx-1-t)%q + q) % q)},
			{Kind: Send, To: next, Src: chunk(((idx-t)%q + q) % q)},
		})
	}
	return rounds
}

// ringReduceScatterRounds is rank r's program of the ring bucket
// reduce-scatter: chunks are the send-space blocks, the result is the
// single recv block.
func ringReduceScatterRounds(p, r int) [][]Step {
	return ringRSRounds(p, r, (r+1)%p, (r-1+p)%p, 1, 0, 1,
		func(c int) Ref { return sendRef(c, 1) }, recvRef(0, 1))
}

// RingReduceScatter compiles the ring bucket reduce-scatter: p-1 rounds
// of one-block reduce-and-forward, every link carrying exactly one block
// per round.
func RingReduceScatter(p int, _ *topo.Mapping) (*Schedule, error) {
	return assembleReduce("rs-ring", CollReduceScatter, p, []int{1, 1}, func(r int) [][]Step {
		return ringReduceScatterRounds(p, r)
	}), nil
}

func ringReduceScatterRank(p, r int, _ *topo.Mapping) (*RankProgram, error) {
	return reduceRank("rs-ring", CollReduceScatter, p, r, []int{1, 1}, ringReduceScatterRounds(p, r)), nil
}

// ringAllreduceRounds is rank r's program of the ring allreduce: the
// bucket reduce-scatter landing chunk r in recv slot r, then a p-1-round
// ring allgather of the recv space.
func ringAllreduceRounds(p, r int) [][]Step {
	next, prev := (r+1)%p, (r-1+p)%p
	recvChunk := func(c int) Ref { return recvRef(c, 1) }
	rounds := ringRSRounds(p, r, next, prev, 1, 0, 1,
		func(c int) Ref { return sendRef(c, 1) }, recvRef(r, 1))
	return append(rounds, ringAGRounds(p, r, next, prev, recvChunk)...)
}

// RingAllreduce compiles the ring allreduce (bucket reduce-scatter +
// ring allgather): 2(p-1) rounds, bandwidth-optimal wire volume.
func RingAllreduce(p int, _ *topo.Mapping) (*Schedule, error) {
	return assembleReduce("ar-ring", CollAllreduce, p, []int{1, 1}, func(r int) [][]Step {
		return ringAllreduceRounds(p, r)
	}), nil
}

func ringAllreduceRank(p, r int, _ *topo.Mapping) (*RankProgram, error) {
	return reduceRank("ar-ring", CollAllreduce, p, r, []int{1, 1}, ringAllreduceRounds(p, r)), nil
}

// The torus scratch layout: the column-major pack buffer, the row-phase
// accumulators, the row-reduced column chunk, the column-phase
// accumulators, and (allreduce only) the allgather assembly buffer.
const (
	torusPack = 0 // p blocks: send data packed column-major
	torusRowA = 1 // rows blocks: row-phase accumulator
	torusRowB = 2 // rows blocks: row-phase accumulator
	torusCol  = 3 // rows blocks: row-reduced chunk for this column
	torusColA = 4 // 1 block: column-phase accumulator
	torusColB = 5 // 1 block: column-phase accumulator
	torusAG   = 6 // p blocks (allreduce only): column-major allgather
)

func torusReduceScratch(p, rows int) []int    { return []int{p, rows, rows, rows, 1, 1} }
func torusAllreduceScratch(p, rows int) []int { return []int{p, rows, rows, rows, 1, 1, p} }

// torusRSRounds is rank r's reduce-scatter on the rows x cols torus,
// ending with the fully reduced block at dst: pack the send space
// column-major (chunk j' = this rank's contributions to column j', rows
// blocks), ring reduce-scatter along the row ring, then along the column
// ring.
func torusRSRounds(p, rows, cols, r int, dst Ref) [][]Step {
	i, j := r/cols, r%cols
	var pack []Step
	for jj := 0; jj < cols; jj++ {
		for ii := 0; ii < rows; ii++ {
			pack = append(pack, Step{Kind: Copy,
				Src: sendRef(ii*cols+jj, 1), Dst: scratchRef(torusPack, jj*rows+ii, 1)})
		}
	}
	rounds := [][]Step{pack}
	rowNext, rowPrev := i*cols+(j+1)%cols, i*cols+(j-1+cols)%cols
	rounds = append(rounds, ringRSRounds(cols, j, rowNext, rowPrev, rows, torusRowA, torusRowB,
		func(c int) Ref { return scratchRef(torusPack, c*rows, rows) },
		scratchRef(torusCol, 0, rows))...)
	colNext, colPrev := ((i+1)%rows)*cols+j, ((i-1+rows)%rows)*cols+j
	rounds = append(rounds, ringRSRounds(rows, i, colNext, colPrev, 1, torusColA, torusColB,
		func(c int) Ref { return scratchRef(torusCol, c, 1) }, dst)...)
	return rounds
}

// TorusReduceScatter compiles the two-phase torus reduce-scatter: ring
// reduce-scatter along the row ring (rows-block chunks), then along the
// column ring (one-block chunks). The decomposition follows the
// all-to-all torus: the topology's nodes x ppn when it matches, the
// most-square factorization otherwise.
func TorusReduceScatter(p int, m *topo.Mapping) (*Schedule, error) {
	rows, cols := torusShape(p, m)
	name := fmt.Sprintf("rs-torus%dx%d", rows, cols)
	return assembleReduce(name, CollReduceScatter, p, torusReduceScratch(p, rows), func(r int) [][]Step {
		return torusRSRounds(p, rows, cols, r, recvRef(0, 1))
	}), nil
}

func torusReduceScatterRank(p, r int, m *topo.Mapping) (*RankProgram, error) {
	rows, cols := torusShape(p, m)
	name := fmt.Sprintf("rs-torus%dx%d", rows, cols)
	return reduceRank(name, CollReduceScatter, p, r, torusReduceScratch(p, rows),
		torusRSRounds(p, rows, cols, r, recvRef(0, 1))), nil
}

// torusARRounds is rank r's allreduce on the torus: the two-phase
// reduce-scatter landing at slot (j, i) of the column-major allgather
// buffer, ring allgathers along the column then row rings, and a final
// unpack round into the recv space.
func torusARRounds(p, rows, cols, r int) [][]Step {
	i, j := r/cols, r%cols
	rounds := torusRSRounds(p, rows, cols, r, scratchRef(torusAG, j*rows+i, 1))
	rowNext, rowPrev := i*cols+(j+1)%cols, i*cols+(j-1+cols)%cols
	colNext, colPrev := ((i+1)%rows)*cols+j, ((i-1+rows)%rows)*cols+j
	rounds = append(rounds, ringAGRounds(rows, i, colNext, colPrev,
		func(c int) Ref { return scratchRef(torusAG, j*rows+c, 1) })...)
	rounds = append(rounds, ringAGRounds(cols, j, rowNext, rowPrev,
		func(c int) Ref { return scratchRef(torusAG, c*rows, rows) })...)
	var unpack []Step
	for ii := 0; ii < rows; ii++ {
		for jj := 0; jj < cols; jj++ {
			unpack = append(unpack, Step{Kind: Copy,
				Src: scratchRef(torusAG, jj*rows+ii, 1), Dst: recvRef(ii*cols+jj, 1)})
		}
	}
	return append(rounds, unpack)
}

// TorusAllreduce compiles the torus allreduce: the two-phase
// reduce-scatter followed by the mirror column- and row-ring allgathers.
func TorusAllreduce(p int, m *topo.Mapping) (*Schedule, error) {
	rows, cols := torusShape(p, m)
	name := fmt.Sprintf("ar-torus%dx%d", rows, cols)
	return assembleReduce(name, CollAllreduce, p, torusAllreduceScratch(p, rows), func(r int) [][]Step {
		return torusARRounds(p, rows, cols, r)
	}), nil
}

func torusAllreduceRank(p, r int, m *topo.Mapping) (*RankProgram, error) {
	rows, cols := torusShape(p, m)
	name := fmt.Sprintf("ar-torus%dx%d", rows, cols)
	return reduceRank(name, CollAllreduce, p, r, torusAllreduceScratch(p, rows),
		torusARRounds(p, rows, cols, r)), nil
}

// hypercubeRSRounds is rank r's recursive-halving reduce-scatter on the
// k-dimensional hypercube (p = 2^k), ending with the fully reduced block
// at dst. D_t is the 2^(k-t)-rank aligned index range containing r after
// t rounds; round t exchanges the unwanted half of D_t with the partner
// across bit k-1-t, folding the kept half into the stage-t accumulator.
// Scratch space t holds the p/2^(t+1)-block partial received in round t.
func hypercubeRSRounds(p, k, r int, dst Ref) [][]Step {
	if p == 1 {
		return [][]Step{{{Kind: Copy, Src: sendRef(0, 1), Dst: dst}}}
	}
	base := func(t int) int { return r &^ (1<<(k-t) - 1) }
	// fold is the round-t combine of the prior accumulator (the send
	// space for t == 1, a sub-range of stage t-2 after) into stage t-1,
	// completing the partial over D_t.
	fold := func(t int) Step {
		n := p >> t
		if t == 1 {
			return reduceStep(scratchRef(0, 0, n), sendRef(base(1), n))
		}
		return reduceStep(scratchRef(t-1, 0, n), scratchRef(t-2, base(t)-base(t-1), n))
	}
	half := p >> 1
	q := r ^ (1 << (k - 1))
	rounds := [][]Step{{
		{Kind: Recv, From: q, Dst: scratchRef(0, 0, half)},
		{Kind: Send, To: q, Src: sendRef((q>>(k-1))*half, half)},
	}}
	for t := 1; t < k; t++ {
		half := p >> (t + 1)
		b := k - 1 - t
		q := r ^ (1 << b)
		rounds = append(rounds, []Step{
			{Kind: Recv, From: q, Dst: scratchRef(t, 0, half)},
			fold(t),
			{Kind: Send, To: q, Src: scratchRef(t-1, ((q>>b)&1)*half, half)},
		})
	}
	rounds = append(rounds, []Step{
		fold(k),
		{Kind: Copy, Src: scratchRef(k-1, 0, 1), Dst: dst},
	})
	return rounds
}

// hypercubeReduceScratch declares the k halving accumulators: p/2, p/4,
// ..., 1 blocks.
func hypercubeReduceScratch(p, k int) []int {
	if p == 1 {
		return nil
	}
	sc := make([]int, k)
	for t := 0; t < k; t++ {
		sc[t] = p >> (t + 1)
	}
	return sc
}

// hypercubeShape validates the power-of-two rank count and returns k.
func hypercubeShape(p int) (int, error) {
	if p&(p-1) != 0 {
		return 0, fmt.Errorf("sched: hypercube needs a power-of-two rank count, got %d", p)
	}
	return bits.Len(uint(p)) - 1, nil
}

// HypercubeReduceScatter compiles the recursive-halving reduce-scatter
// (p must be a power of two): log2(p) rounds, halving the live index
// range and the message size each round.
func HypercubeReduceScatter(p int, _ *topo.Mapping) (*Schedule, error) {
	k, err := hypercubeShape(p)
	if err != nil {
		return nil, err
	}
	return assembleReduce("rs-hypercube", CollReduceScatter, p, hypercubeReduceScratch(p, k), func(r int) [][]Step {
		return hypercubeRSRounds(p, k, r, recvRef(0, 1))
	}), nil
}

func hypercubeReduceScatterRank(p, r int, _ *topo.Mapping) (*RankProgram, error) {
	k, err := hypercubeShape(p)
	if err != nil {
		return nil, err
	}
	return reduceRank("rs-hypercube", CollReduceScatter, p, r, hypercubeReduceScratch(p, k),
		hypercubeRSRounds(p, k, r, recvRef(0, 1))), nil
}

// hypercubeARRounds is rank r's allreduce on the hypercube: recursive
// halving landing the reduced block in recv slot r, then the mirror
// recursive-doubling allgather over the recv space (round u exchanges
// the aligned 2^u-block range with the partner across bit u).
func hypercubeARRounds(p, k, r int) [][]Step {
	rounds := hypercubeRSRounds(p, k, r, recvRef(r, 1))
	for u := 0; u < k; u++ {
		n := 1 << u
		myBase := r &^ (n - 1)
		q := r ^ n
		rounds = append(rounds, []Step{
			{Kind: Recv, From: q, Dst: recvRef(myBase^n, n)},
			{Kind: Send, To: q, Src: recvRef(myBase, n)},
		})
	}
	return rounds
}

// HypercubeAllreduce compiles the hypercube allreduce (recursive halving
// + recursive doubling): 2 log2(p) rounds.
func HypercubeAllreduce(p int, _ *topo.Mapping) (*Schedule, error) {
	k, err := hypercubeShape(p)
	if err != nil {
		return nil, err
	}
	return assembleReduce("ar-hypercube", CollAllreduce, p, hypercubeReduceScratch(p, k), func(r int) [][]Step {
		return hypercubeARRounds(p, k, r)
	}), nil
}

func hypercubeAllreduceRank(p, r int, _ *topo.Mapping) (*RankProgram, error) {
	k, err := hypercubeShape(p)
	if err != nil {
		return nil, err
	}
	return reduceRank("ar-hypercube", CollAllreduce, p, r, hypercubeReduceScratch(p, k),
		hypercubeARRounds(p, k, r)), nil
}
