// Reduction-schedule generators: reduce-scatter and allreduce compiled
// onto the same direct-connect topologies as the all-to-all families
// (ring, 2D torus, hypercube). Every generator writes one rank's program
// as a source whose phases are the algorithm's stages: a ring
// reduce-scatter, a ring allgather, a pack or unpack round.
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

// reduction is rank r's source of a reduction program, labeled OpAny.
func reduction(name string, coll Coll, p, r int, scratch []int, phases ...phase) *source {
	return &source{hdr: RankProgram{Format: FormatVersion, Name: name, Ranks: p, Rank: r,
		Coll: coll, Op: OpAny, Scratch: scratch}, phases: phases}
}

// reduceStep builds the Dst = Dst op Src combine step with the bundled
// generators' operator label.
func reduceStep(dst, src Ref) Step {
	return Step{Kind: Reduce, Src: src, Dst: dst, Op: OpAny}
}

// mod is x mod q in [0, q).
func mod(x, q int) int { return (x%q + q) % q }

// ringRS is the phase of a ring reduce-scatter among q ring members for
// the member at index idx. Member c's chunk is chunk(c) (blocks blocks);
// next/prev are the world ranks of the ring neighbors; stageA/stageB are
// two scratch spaces of blocks blocks used as alternating accumulators;
// the fully reduced own chunk lands at dst.
//
// Round 0 sends chunk idx-1 onward; round t reduces the local
// contribution of chunk idx-1-t into the partial received last round and
// forwards it; after q-1 wire rounds the partial for chunk idx has
// visited every member, and a final round folds in the local
// contribution and copies the result to dst. q == 1 degenerates to a
// single local copy.
func ringRS(q, idx, next, prev, blocks, stageA, stageB int, chunk func(c int) Ref, dst Ref) phase {
	if q == 1 {
		return phase{1, func(_ int, steps []Step) []Step {
			return append(steps, Step{Kind: Copy, Src: chunk(idx), Dst: dst})
		}}
	}
	stage := func(t int) Ref {
		if t%2 == 0 {
			return scratchRef(stageA, 0, blocks)
		}
		return scratchRef(stageB, 0, blocks)
	}
	return phase{q, func(t int, steps []Step) []Step {
		switch {
		case t == 0:
			return append(steps,
				Step{Kind: Recv, From: int32(prev), Dst: stage(0)},
				Step{Kind: Send, To: int32(next), Src: chunk(mod(idx-1, q))})
		case t < q-1:
			acc := stage(t - 1)
			return append(steps,
				Step{Kind: Recv, From: int32(prev), Dst: stage(t)},
				reduceStep(acc, chunk(mod(idx-1-t, q))),
				Step{Kind: Send, To: int32(next), Src: acc})
		}
		acc := stage(q - 2)
		return append(steps, reduceStep(acc, chunk(idx)), Step{Kind: Copy, Src: acc, Dst: dst})
	}}
}

// ringAG is the phase of the q-1 ring allgather rounds: member idx owns
// chunk(idx) going in, and after the rounds every member holds all q
// chunks (chunk c must already hold valid data at member c).
func ringAG(q, idx, next, prev int, chunk func(c int) Ref) phase {
	return phase{q - 1, func(t int, steps []Step) []Step {
		return append(steps,
			Step{Kind: Recv, From: int32(prev), Dst: chunk(mod(idx-1-t, q))},
			Step{Kind: Send, To: int32(next), Src: chunk(mod(idx-t, q))})
	}}
}

// sendChunk and recvChunk are the one-block chunks of the user buffers.
func sendChunk(c int) Ref { return sendRef(c, 1) }
func recvChunk(c int) Ref { return recvRef(c, 1) }

// ringReduceScatterSource is rank r's program of the ring bucket
// reduce-scatter: p-1 rounds of one-block reduce-and-forward, every link
// carrying exactly one block per round. The chunks are the send-space
// blocks, the result is the single recv block.
func ringReduceScatterSource(p, r int, _ *topo.Mapping) (*source, error) {
	return reduction("rs-ring", CollReduceScatter, p, r, []int{1, 1},
		ringRS(p, r, (r+1)%p, (r-1+p)%p, 1, 0, 1, sendChunk, recvRef(0, 1))), nil
}

// ringAllreduceSource is rank r's program of the ring allreduce (bucket
// reduce-scatter + ring allgather): the reduce-scatter lands chunk r in
// recv slot r, then a p-1-round ring allgather fills the recv space —
// 2(p-1) rounds, bandwidth-optimal wire volume.
func ringAllreduceSource(p, r int, _ *topo.Mapping) (*source, error) {
	next, prev := (r+1)%p, (r-1+p)%p
	return reduction("ar-ring", CollAllreduce, p, r, []int{1, 1},
		ringRS(p, r, next, prev, 1, 0, 1, sendChunk, recvRef(r, 1)),
		ringAG(p, r, next, prev, recvChunk)), nil
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

// torusNeighbors are rank r's ring neighbors on the rows x cols torus.
type torusNeighbors struct{ i, j, rowNext, rowPrev, colNext, colPrev int }

func torusAt(rows, cols, r int) torusNeighbors {
	i, j := r/cols, r%cols
	return torusNeighbors{i, j, i*cols + (j+1)%cols, i*cols + (j-1+cols)%cols,
		((i+1)%rows)*cols + j, ((i-1+rows)%rows)*cols + j}
}

// torusRS is rank r's reduce-scatter on the rows x cols torus, ending
// with the fully reduced block at dst: pack the send space column-major
// (chunk j' = this rank's contributions to column j', rows blocks), ring
// reduce-scatter along the row ring, then along the column ring.
func torusRS(p, rows, cols, r int, dst Ref) []phase {
	n := torusAt(rows, cols, r)
	pack := phase{1, func(_ int, steps []Step) []Step {
		for jj := 0; jj < cols; jj++ {
			for ii := 0; ii < rows; ii++ {
				steps = append(steps, Step{Kind: Copy,
					Src: sendRef(ii*cols+jj, 1), Dst: scratchRef(torusPack, jj*rows+ii, 1)})
			}
		}
		return steps
	}}
	return []phase{pack,
		ringRS(cols, n.j, n.rowNext, n.rowPrev, rows, torusRowA, torusRowB,
			func(c int) Ref { return scratchRef(torusPack, c*rows, rows) }, scratchRef(torusCol, 0, rows)),
		ringRS(rows, n.i, n.colNext, n.colPrev, 1, torusColA, torusColB,
			func(c int) Ref { return scratchRef(torusCol, c, 1) }, dst),
	}
}

// torusReduceScatterSource is rank r's program of the two-phase torus
// reduce-scatter: ring reduce-scatter along the row ring (rows-block
// chunks), then along the column ring (one-block chunks). The
// decomposition follows the all-to-all torus: the topology's nodes x ppn
// when it matches, the most-square factorization otherwise.
func torusReduceScatterSource(p, r int, m *topo.Mapping) (*source, error) {
	rows, cols := torusShape(p, m)
	return reduction(fmt.Sprintf("rs-torus%dx%d", rows, cols), CollReduceScatter, p, r, torusReduceScratch(p, rows),
		torusRS(p, rows, cols, r, recvRef(0, 1))...), nil
}

// torusAllreduceSource is rank r's program of the torus allreduce: the
// two-phase reduce-scatter landing at slot (j, i) of the column-major
// allgather buffer, ring allgathers along the column then row rings, and
// a final unpack round into the recv space.
func torusAllreduceSource(p, r int, m *topo.Mapping) (*source, error) {
	rows, cols := torusShape(p, m)
	n := torusAt(rows, cols, r)
	unpack := phase{1, func(_ int, steps []Step) []Step {
		for ii := 0; ii < rows; ii++ {
			for jj := 0; jj < cols; jj++ {
				steps = append(steps, Step{Kind: Copy,
					Src: scratchRef(torusAG, jj*rows+ii, 1), Dst: recvRef(ii*cols+jj, 1)})
			}
		}
		return steps
	}}
	phases := append(torusRS(p, rows, cols, r, scratchRef(torusAG, n.j*rows+n.i, 1)),
		ringAG(rows, n.i, n.colNext, n.colPrev, func(c int) Ref { return scratchRef(torusAG, n.j*rows+c, 1) }),
		ringAG(cols, n.j, n.rowNext, n.rowPrev, func(c int) Ref { return scratchRef(torusAG, c*rows, rows) }),
		unpack)
	return reduction(fmt.Sprintf("ar-torus%dx%d", rows, cols), CollAllreduce, p, r, torusAllreduceScratch(p, rows), phases...), nil
}

// hypercubeRS is rank r's recursive-halving reduce-scatter on the
// k-dimensional hypercube (p = 2^k), ending with the fully reduced block
// at dst. D_t is the 2^(k-t)-rank aligned index range containing r after
// t rounds; round t exchanges the unwanted half of D_t with the partner
// across bit k-1-t, folding the kept half into the stage-t accumulator.
// Scratch space t holds the p/2^(t+1)-block partial received in round t.
func hypercubeRS(p, k, r int, dst Ref) phase {
	if p == 1 {
		return phase{1, func(_ int, steps []Step) []Step {
			return append(steps, Step{Kind: Copy, Src: sendRef(0, 1), Dst: dst})
		}}
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
	return phase{k + 1, func(t int, steps []Step) []Step {
		switch {
		case t == 0:
			half := p >> 1
			q := r ^ (1 << (k - 1))
			return append(steps,
				Step{Kind: Recv, From: int32(q), Dst: scratchRef(0, 0, half)},
				Step{Kind: Send, To: int32(q), Src: sendRef((q>>(k-1))*half, half)})
		case t < k:
			half := p >> (t + 1)
			b := k - 1 - t
			q := r ^ (1 << b)
			return append(steps,
				Step{Kind: Recv, From: int32(q), Dst: scratchRef(t, 0, half)},
				fold(t),
				Step{Kind: Send, To: int32(q), Src: scratchRef(t-1, ((q>>b)&1)*half, half)})
		}
		return append(steps, fold(k), Step{Kind: Copy, Src: scratchRef(k-1, 0, 1), Dst: dst})
	}}
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

// hypercubeReduceScatterSource is rank r's program of the
// recursive-halving reduce-scatter (p must be a power of two): log2(p)
// rounds, halving the live index range and the message size each round.
func hypercubeReduceScatterSource(p, r int, _ *topo.Mapping) (*source, error) {
	k, err := hypercubeShape(p)
	if err != nil {
		return nil, err
	}
	return reduction("rs-hypercube", CollReduceScatter, p, r, hypercubeReduceScratch(p, k),
		hypercubeRS(p, k, r, recvRef(0, 1))), nil
}

// hypercubeAllreduceSource is rank r's program of the hypercube
// allreduce (recursive halving + recursive doubling, 2 log2(p) rounds):
// recursive halving lands the reduced block in recv slot r, then the
// mirror recursive-doubling allgather over the recv space (round u
// exchanges the aligned 2^u-block range with the partner across bit u).
func hypercubeAllreduceSource(p, r int, _ *topo.Mapping) (*source, error) {
	k, err := hypercubeShape(p)
	if err != nil {
		return nil, err
	}
	doubling := phase{k, func(u int, steps []Step) []Step {
		n := 1 << u
		myBase := r &^ (n - 1)
		q := r ^ n
		return append(steps,
			Step{Kind: Recv, From: int32(q), Dst: recvRef(myBase^n, n)},
			Step{Kind: Send, To: int32(q), Src: recvRef(myBase, n)})
	}}
	return reduction("ar-hypercube", CollAllreduce, p, r, hypercubeReduceScratch(p, k),
		hypercubeRS(p, k, r, recvRef(r, 1)), doubling), nil
}
