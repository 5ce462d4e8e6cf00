// Rank-sliced schedule compilation. A RankProgram is the slice of a
// Schedule that one rank actually executes: its step list of every round,
// plus the world-level facts (rank count, scratch declarations) the
// executor and verifier need. GenerateRank compiles a rank's program
// directly — O(slice) memory instead of the whole world's O(p^2) — so
// schedule-backed algorithms scale to worlds where materializing (or
// symbolically verifying) the assembled schedule is out of the question.
//
// The contract, enforced by property tests: for every generator and every
// (p, rank, topology), GenerateRank is byte-identical to
// Slice(Generate(...), rank). The classic generators share per-rank step
// builders with Generate; the route-compiled families (ring, torus,
// hypercube) have independent inverse-routing slicers in routeslice.go,
// cross-checked against the path-materializing compiler.

package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"alltoallx/internal/artifact"
	"alltoallx/internal/topo"
)

// RankProgram is one rank's compiled schedule: Rounds[ri] is this rank's
// step list in round ri (step semantics and the round discipline are
// exactly those of Schedule). Scratch declares the same per-rank scratch
// spaces the whole-world schedule would; Ranks is the world size the
// program is compiled for.
type RankProgram struct {
	// Format is the IR format version (FormatVersion).
	Format int `json:"format"`
	// Name labels the originating schedule (generator name).
	Name string `json:"name"`
	// Ranks is the world size the program is compiled for.
	Ranks int `json:"ranks"`
	// Rank is the rank this program belongs to.
	Rank int `json:"rank"`
	// Coll is the collective the program implements; empty means
	// CollAlltoall (the version-1 reading). Use Collective() to read it.
	Coll Coll `json:"coll,omitempty"`
	// Op is the reduction-operator label (Schedule.Op).
	Op string `json:"op,omitempty"`
	// VSend/VRecv are this rank's alltoallv count row and column:
	// VSend[d] blocks go to rank d, VRecv[s] blocks arrive from rank s.
	// Present only for CollAlltoallv — the slice of Schedule.Counts a
	// rank needs (O(p), never the O(p^2) matrix).
	VSend []int `json:"vsend,omitempty"`
	VRecv []int `json:"vrecv,omitempty"`
	// Scratch declares scratch spaces, identically to Schedule.Scratch.
	Scratch []int `json:"scratch,omitempty"`
	// Rounds[ri] is this rank's steps in round ri.
	Rounds [][]Step `json:"rounds"`
}

// Collective returns the program's collective kind, reading the empty
// (version-1) value as CollAlltoall.
func (rp *RankProgram) Collective() Coll {
	if rp.Coll == "" {
		return CollAlltoall
	}
	return rp.Coll
}

// Slice extracts rank's program from an assembled schedule. The step
// lists are shared with the schedule, not copied: schedules are immutable
// after generation.
func Slice(s *Schedule, rank int) (*RankProgram, error) {
	if s == nil {
		return nil, errors.New("sched: cannot slice a nil schedule")
	}
	if rank < 0 || rank >= s.Ranks {
		return nil, fmt.Errorf("sched: rank %d out of range for a %d-rank schedule", rank, s.Ranks)
	}
	rp := &RankProgram{Format: s.Format, Name: s.Name, Ranks: s.Ranks, Rank: rank,
		Coll: s.Coll, Op: s.Op, Scratch: s.Scratch}
	if s.Collective() == CollAlltoallv {
		rp.VSend = countsRow(s.Counts, rank)
		rp.VRecv = countsCol(s.Counts, rank)
	}
	for ri := range s.Rounds {
		if rank >= len(s.Rounds[ri].Steps) {
			return nil, fmt.Errorf("sched: round %d has only %d step lists, cannot slice rank %d", ri, len(s.Rounds[ri].Steps), rank)
		}
		rp.Rounds = append(rp.Rounds, s.Rounds[ri].Steps[rank])
	}
	return rp, nil
}

// SpaceSize returns the size in blocks of a buffer space id, or -1 for an
// unknown space (the same layout the whole-world schedule reports for
// this rank via SpaceSizeRank).
func (rp *RankProgram) SpaceSize(buf int) int {
	switch buf {
	case SpaceSend:
		if rp.Collective() == CollAlltoallv {
			return sumCounts(rp.VSend)
		}
		return rp.Ranks
	case SpaceRecv:
		switch rp.Collective() {
		case CollReduceScatter:
			return 1
		case CollAlltoallv:
			return sumCounts(rp.VRecv)
		}
		return rp.Ranks
	}
	if i := buf - SpaceScratch; i >= 0 && i < len(rp.Scratch) {
		return rp.Scratch[i]
	}
	return -1
}

// Stats computes the program's summary counters: the same fields as
// Schedule.Stats restricted to this rank's steps (Messages counts this
// rank's sends).
func (rp *RankProgram) Stats() Stats {
	st := Stats{Rounds: len(rp.Rounds)}
	for _, sz := range rp.Scratch {
		st.ScratchBlocks += sz
	}
	for _, steps := range rp.Rounds {
		msgs := 0
		for _, step := range steps {
			switch step.Kind {
			case Send, SendRecv:
				msgs++
				st.WireBlocks += step.Src.N
			case Copy:
				st.Copies++
				st.CopyBlocks += step.Src.N
			case Reduce:
				st.Reduces++
				st.ReduceBlocks += step.Src.N
			}
		}
		st.Messages += msgs
		if msgs > st.MaxRoundMessages {
			st.MaxRoundMessages = msgs
		}
	}
	return st
}

// Steps returns the total step count of the program (the quantity cache
// byte accounting is based on).
func (rp *RankProgram) Steps() int {
	n := 0
	for _, steps := range rp.Rounds {
		n += len(steps)
	}
	return n
}

// stepBytes approximates the in-memory footprint of one Step (kind
// header, peers, two refs, slice overhead amortized).
const stepBytes = 96

// MemBytes estimates the program's in-memory footprint, for cache byte
// accounting.
func (rp *RankProgram) MemBytes() int64 {
	return int64(rp.Steps())*stepBytes + int64(len(rp.Rounds))*24 +
		int64(len(rp.Scratch)+len(rp.VSend)+len(rp.VRecv))*8 + 128
}

// Encode writes the rank program as versioned JSON (the Format field is
// forced to FormatVersion).
func (rp *RankProgram) Encode(w io.Writer) error {
	rp.Format = FormatVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rp)
}

// Digest returns the SHA-256 of the program's canonical binary encoding:
// every header field, then every step field, in declaration order, with
// integers as varints and strings and lists length-prefixed (so a nil
// and an empty list digest alike, as they encode alike). Programs with
// equal digests are byte-identical, which is what lets a world proof's
// recorded digests stand for the slices it verified.
func (rp *RankProgram) Digest() [sha256.Size]byte {
	h, b := sha256.New(), make([]byte, 0, 4096)
	num := func(v int) {
		if len(b) > cap(b)-binary.MaxVarintLen64 {
			h.Write(b)
			b = b[:0]
		}
		b = binary.AppendVarint(b, int64(v))
	}
	str := func(s string) {
		num(len(s))
		b = append(b, s...)
	}
	num(rp.Format)
	str(rp.Name)
	num(rp.Ranks)
	num(rp.Rank)
	str(string(rp.Coll))
	str(rp.Op)
	for _, l := range [][]int{rp.VSend, rp.VRecv, rp.Scratch} {
		num(len(l))
		for _, v := range l {
			num(v)
		}
	}
	num(len(rp.Rounds))
	for _, steps := range rp.Rounds {
		num(len(steps))
		for _, s := range steps {
			str(string(s.Kind))
			for _, v := range [...]int{s.To, s.From, s.Src.Buf, s.Src.Off, s.Src.N, s.Dst.Buf, s.Dst.Off, s.Dst.N} {
				num(v)
			}
			str(s.Op)
		}
	}
	h.Write(b)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// DecodeRank reads one rank program from r, checking the format version
// and basic shape (like Decode, it stays cheap; run VerifyRank for the
// local correctness checks).
func DecodeRank(r io.Reader) (*RankProgram, error) {
	var rp RankProgram
	if err := json.NewDecoder(r).Decode(&rp); err != nil {
		return nil, fmt.Errorf("sched: decoding rank program: %w", err)
	}
	if !formatReadable(rp.Format) {
		return nil, fmt.Errorf("sched: rank program format %d, this build reads formats 1-%d — regenerate with a2asched slice", rp.Format, FormatVersion)
	}
	if err := checkRanks(rp.Ranks); err != nil {
		return nil, err
	}
	if rp.Rank < 0 || rp.Rank >= rp.Ranks {
		return nil, fmt.Errorf("sched: rank program rank %d out of range 0..%d", rp.Rank, rp.Ranks-1)
	}
	return &rp, nil
}

// Save writes the rank program to path atomically (the shared artifact
// discipline).
func (rp *RankProgram) Save(path string) error {
	return artifact.Save(path, "sched: saving rank program", rp.Encode)
}

// rankGenerator compiles one rank's program directly.
type rankGenerator func(p, rank int, m *topo.Mapping) (*RankProgram, error)

// GenerateRank compiles the named schedule's slice for one rank of a
// p-rank world (m may be nil). The result is byte-identical to
// Slice(Generate(name, p, m), rank) but costs O(slice): O(p) for
// direct/pairwise, O(p log p) for bruck, and O(blocks routed through the
// rank) for the route-compiled families — never O(p^2) memory.
func GenerateRank(name string, p, rank int, m *topo.Mapping) (*RankProgram, error) {
	e, ok := genRegistry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown generator %q (have %v)", name, AllGenerators())
	}
	if err := checkRanks(p); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("sched: rank %d out of range 0..%d", rank, p-1)
	}
	return e.rank(p, rank, m)
}

// LoadRank reads the rank program at path (DecodeRank semantics:
// format-checked, not verified).
func LoadRank(path string) (*RankProgram, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sched: loading rank program: %w", err)
	}
	defer f.Close()
	rp, err := DecodeRank(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rp, nil
}
