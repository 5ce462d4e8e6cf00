// Rank programs. A RankProgram is what one rank executes: its step list
// of every round, plus the world-level facts (rank count, scratch
// declarations) the executor and verifier need; a world is its ranks'
// programs. Every generator compiles one rank at a time, as a header
// plus a round source that writes round ri into a reused buffer:
// GenerateRank materialises the rounds into a program, O(slice) memory
// instead of the whole world's O(p^2), and Prove walks every rank's
// rounds as they are written, one round of the world at a time.

package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
	"unsafe"

	"alltoallx/internal/artifact"
	"alltoallx/internal/topo"
)

// RankProgram is one rank's compiled schedule: Rounds[ri] is this rank's
// step list in round ri, run under the round discipline. Every program
// of a world repeats the same header but Rank, and the same round
// count; Ranks is the world size the program is compiled for.
type RankProgram struct {
	// Format is the IR format version (FormatVersion).
	Format int `json:"format"`
	// Name labels the originating schedule (generator name).
	Name string `json:"name"`
	// Ranks is the world size the program is compiled for.
	Ranks int `json:"ranks"`
	// Rank is the rank this program belongs to.
	Rank int `json:"rank"`
	// Coll is the collective the program declares; empty means
	// CollAlltoall (the version-1 reading), and the verifier refuses any
	// other. Use Collective() to read it.
	Coll Coll `json:"coll,omitempty"`
	// Scratch declares per-rank scratch spaces: Scratch[i] is the size in
	// blocks of space SpaceScratch+i. Every rank gets its own copy.
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

// SpaceSize returns the size in blocks of a buffer space id, or -1 for an
// unknown space: Ranks blocks for the send and recv spaces, the declared
// size for a scratch space.
func (rp *RankProgram) SpaceSize(buf int) int {
	switch buf {
	case SpaceSend, SpaceRecv:
		return rp.Ranks
	}
	if i := buf - SpaceScratch; i >= 0 && i < len(rp.Scratch) {
		return rp.Scratch[i]
	}
	return -1
}

// Stats computes the program's summary counters: WorldStats of this
// rank alone (Messages counts this rank's sends).
func (rp *RankProgram) Stats() Stats { return WorldStats([]*RankProgram{rp}) }

// Steps returns the total step count of the program (the quantity cache
// byte accounting is based on).
func (rp *RankProgram) Steps() int {
	n := 0
	for _, steps := range rp.Rounds {
		n += len(steps)
	}
	return n
}

// MemBytes estimates the program's in-memory footprint, for cache byte
// accounting: its steps at their in-memory size, a slice header per
// round, the scratch declarations and a fixed header.
func (rp *RankProgram) MemBytes() int64 {
	return int64(rp.Steps())*int64(unsafe.Sizeof(Step{})) + int64(len(rp.Rounds))*24 +
		int64(len(rp.Scratch))*8 + 128
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
// integers as varints, a step's kind as its name, and strings and lists
// length-prefixed (so a nil and an empty list digest alike, as they
// encode alike). Programs with equal digests are byte-identical, which
// is what lets a world proof's recorded digests stand for the programs
// it verified. Prove folds the same encoding one round at a time, as it
// walks the rounds.
func (rp *RankProgram) Digest() [sha256.Size]byte {
	d := newDigester(rp, len(rp.Rounds))
	for _, steps := range rp.Rounds {
		d.round(steps)
	}
	return d.sum()
}

// digester folds a program into its Digest one round at a time.
type digester struct {
	h hash.Hash
	b []byte
}

// newDigester starts the digest of a program with header hdr (its
// rounds are not read) and the given round count.
func newDigester(hdr *RankProgram, rounds int) *digester {
	d := &digester{h: sha256.New(), b: make([]byte, 0, 512)}
	d.num(hdr.Format)
	d.str(hdr.Name)
	d.num(hdr.Ranks)
	d.num(hdr.Rank)
	d.str(string(hdr.Coll))
	// An empty string, where format 2 held the removed reductions'
	// operator label, and two empty lists, where it held the count row
	// and column of the removed alltoallv collective: digests recorded
	// before the removals, as in registry PROOF records, still name the
	// same programs.
	d.num(0)
	d.num(0)
	d.num(0)
	d.num(len(hdr.Scratch))
	for _, v := range hdr.Scratch {
		d.num(v)
	}
	d.num(rounds)
	return d
}

// room hashes the buffered bytes unless n more fit (a longer string
// grows the buffer instead).
func (d *digester) room(n int) {
	if len(d.b)+n > cap(d.b) {
		d.h.Write(d.b)
		d.b = d.b[:0]
	}
}

func (d *digester) num(v int) {
	d.room(binary.MaxVarintLen64)
	d.b = binary.AppendVarint(d.b, int64(v))
}

func (d *digester) str(s string) {
	d.num(len(s))
	d.b = append(d.b, s...)
}

// round folds the program's next round.
func (d *digester) round(steps []Step) {
	d.num(len(steps))
	for i := range steps {
		s := &steps[i]
		kind := s.Kind.String()
		d.room(len(kind) + 11*binary.MaxVarintLen64)
		b := binary.AppendVarint(d.b, int64(len(kind)))
		b = append(b, kind...)
		for _, v := range [...]int32{s.To, s.From, s.Src.Buf, s.Src.Off, s.Src.N, s.Dst.Buf, s.Dst.Off, s.Dst.N} {
			b = binary.AppendVarint(b, int64(v))
		}
		// The zero length of the removed operator label.
		d.b = binary.AppendVarint(b, 0)
	}
}

func (d *digester) sum() [sha256.Size]byte {
	d.h.Write(d.b)
	var sum [sha256.Size]byte
	d.h.Sum(sum[:0])
	return sum
}

// DecodeRank reads one rank program from r, checking the format version
// and basic shape (like DecodeWorld, it stays cheap; run VerifyRank for
// the local correctness checks).
func DecodeRank(r io.Reader) (*RankProgram, error) {
	var rp RankProgram
	if err := json.NewDecoder(r).Decode(&rp); err != nil {
		return nil, fmt.Errorf("sched: decoding rank program: %w", jsonTypeError(err))
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

// A source is one rank's program as a header and a round source: hdr is
// the program without its Rounds, and its rounds are the phases' rounds,
// in order. A world walked from sources holds one round at a time.
type source struct {
	hdr    RankProgram
	phases []phase
}

// phase is a run of n consecutive rounds of a rank's program: round(t,
// buf) appends the steps of the phase's round t to buf and returns it.
type phase struct {
	n     int
	round func(t int, buf []Step) []Step
}

// rankSource compiles one rank of a p-rank world as a source.
type rankSource func(p, rank int, m *topo.Mapping) (*source, error)

// rounds is the program's round count.
func (s *source) rounds() int {
	n := 0
	for _, ph := range s.phases {
		n += ph.n
	}
	return n
}

// round writes round ri of the program into buf, which it reuses, and
// returns it.
func (s *source) round(ri int, buf []Step) []Step {
	for _, ph := range s.phases {
		if ri < ph.n {
			return ph.round(ri, buf[:0])
		}
		ri -= ph.n
	}
	panic(fmt.Sprintf("sched: round %d of a %d-round program", ri, s.rounds()))
}

// roundBufs recycles the buffers program writes rounds into, so that
// materialising a program allocates its rounds and little else.
var roundBufs = sync.Pool{New: func() any { return new([]Step) }}

// program materialises the source: every round copied out at its exact
// length.
func (s *source) program() *RankProgram {
	rp := s.hdr
	rp.Rounds = make([][]Step, s.rounds())
	buf := roundBufs.Get().(*[]Step)
	for ri := range rp.Rounds {
		*buf = s.round(ri, *buf)
		rp.Rounds[ri] = slices.Clone(*buf)
	}
	roundBufs.Put(buf)
	return &rp
}

// programSource is a materialised program as a source: its rounds,
// copied into the caller's buffer.
func programSource(rp *RankProgram) *source {
	hdr := *rp
	hdr.Rounds = nil
	return &source{hdr: hdr, phases: []phase{{len(rp.Rounds), func(ri int, buf []Step) []Step {
		return append(buf, rp.Rounds[ri]...)
	}}}}
}

// GenerateRank compiles the named schedule's program for one rank of a
// p-rank world (m may be nil): O(p) memory for direct and pairwise,
// O(p log p) for bruck, and O(blocks routed through the rank) for the
// route-compiled families, never O(p^2).
func GenerateRank(name string, p, rank int, m *topo.Mapping) (*RankProgram, error) {
	gen, err := generator(name, p)
	if err != nil {
		return nil, err
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("sched: rank %d out of range 0..%d", rank, p-1)
	}
	src, err := gen(p, rank, m)
	if err != nil {
		return nil, err
	}
	return src.program(), nil
}
