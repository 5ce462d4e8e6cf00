// Package sched is the communication-schedule subsystem: an explicit
// intermediate representation for all-to-all exchanges, generators that
// compile algorithms into it, a static verifier that proves a schedule
// correct before it ever runs, and an executor that runs any verified
// schedule over comm.Comm on both substrates.
//
// The paper's algorithms (pairwise, Bruck, node-aware aggregation) are
// hand-coded message loops, but they are all instances of one thing: a
// per-rank schedule of send/recv/copy steps. Following Basu et al.
// ("Efficient All-to-All Collective Communication Schedules for
// Direct-Connect Topologies", PAPERS.md), expressing the exchange as an
// explicit schedule unlocks families of topology-tailored algorithms a
// loop-coded implementation cannot reach — this package adds ring,
// 2D-torus and multiport hypercube schedules — and makes schedules
// shareable artifacts (versioned JSON, like autotune tables) that can be
// inspected, diffed and verified offline (cmd/a2asched).
//
// # The IR
//
// A RankProgram is one rank's part of an exchange: an ordered list of
// rounds, each a list of send/recv/copy steps, plus the world facts
// (rank count, collective, scratch declarations) the executor and
// verifier need. A world is its ranks' programs, indexed by rank; every
// program repeats the same header and round count. All offsets and
// lengths are in block units (the per-rank-pair block of
// MPI_Alltoall), so one program serves every message size. Steps
// reference three kinds of buffer space: the user send buffer
// (SpaceSend), the user recv buffer (SpaceRecv), and per-rank scratch
// spaces declared by RankProgram.Scratch. The user spaces hold Ranks
// blocks each.
//
// Programs travel as versioned JSON: a rank program alone
// (RankProgram.Encode, DecodeRank), or a whole world as one file
// (EncodeWorld, DecodeWorld) that lists, round by round, every rank's
// step list — the layout world files have had since format 1.
//
// # Execution semantics (the round discipline)
//
// The executor runs rounds in order, completing each before the next:
//
//  1. every Recv step (and the receive half of every SendRecv) is posted
//     nonblocking, in step order;
//  2. the step list is walked in order: Copy executes immediately, Send
//     (and the send half of SendRecv) is issued nonblocking — so a copy
//     listed before a send can pack the data that send transmits;
//  3. all posted operations are waited on.
//
// Because the verifier proves every send is matched by a receive within
// its round, the round discipline is deadlock-free. Data received in a
// round is only available in later rounds; the verifier rejects
// same-round reads of received data.
package sched

import (
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
)

// FormatVersion is the on-disk JSON format version the encoders write.
// Bump on incompatible IR changes; the decoders reject unknown versions
// rather than silently executing a stale schedule. Version 2 added the
// collective kind; version-1 artifacts (plain all-to-all schedules)
// decode unchanged, since the field defaults to the all-to-all reading.
// Version 2 also had alltoallv, reduce-scatter and allreduce
// collectives and a reduction operator label, since removed: their
// artifacts decode, the label is ignored as an unknown field, a reduce
// step is refused as an unknown step kind, and the verifier rejects
// the other collectives by name.
const FormatVersion = 2

// formatReadable reports whether this build can read an artifact of the
// given format version.
func formatReadable(f int) bool { return f == 1 || f == FormatVersion }

// Coll names the collective a schedule declares. The zero value (empty
// string, omitted in JSON) reads as CollAlltoall so version-1 artifacts
// keep their meaning; the verifier refuses any other collective by name.
type Coll string

// CollAlltoall is the one collective the IR expresses: send space holds
// Ranks blocks (one per destination), recv space holds Ranks blocks (one
// per source), every (src, dst) block delivered exactly once.
const CollAlltoall Coll = "alltoall"

// Buffer spaces a Ref can address. Scratch space i has id SpaceScratch+i.
const (
	// SpaceSend is the user send buffer: Ranks blocks, read-only (the
	// verifier rejects writes into it).
	SpaceSend = 0
	// SpaceRecv is the user recv buffer: Ranks blocks; slot s must end up
	// holding the block rank s sent to this rank, written exactly once.
	SpaceRecv = 1
	// SpaceScratch is the id of the first scratch space.
	SpaceScratch = 2
)

// Kind names a step type. It is one byte in memory and its name in
// JSON; the zero Kind is no step type at all.
type Kind uint8

// Step kinds.
const (
	// Send transmits Src to rank To.
	Send Kind = iota + 1
	// Recv receives from rank From into Dst.
	Recv
	// SendRecv combines a send (To, Src) and a receive (From, Dst) in one
	// step — the pairwise-exchange primitive.
	SendRecv
	// Copy moves Src to Dst within this rank's buffers (equal lengths).
	Copy
)

// kindNames are the kinds' names, by Kind; the zero Kind's is empty.
var kindNames = [...]string{"", "send", "recv", "sendrecv", "copy"}

// String returns the kind's name: "send", "recv", "sendrecv" or "copy",
// empty for the zero Kind, Kind(n) for any other value.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its name, refusing a value that is no
// step kind.
func (k Kind) MarshalText() ([]byte, error) {
	if k < Send || k > Copy {
		return nil, fmt.Errorf("sched: cannot encode unknown step kind %q", k)
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a kind's name, refusing any other.
func (k *Kind) UnmarshalText(b []byte) error {
	for i := Send; i <= Copy; i++ {
		if kindNames[i] == string(b) {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("sched: unknown step kind %q", b)
}

// Ref addresses a contiguous run of N blocks at offset Off (both in block
// units) of buffer space Buf. It encodes as the JSON array [buf, off, n]
// to keep schedule artifacts compact.
type Ref struct {
	Buf int32
	Off int32
	N   int32
}

// MarshalJSON encodes the ref as [buf, off, n].
func (r Ref) MarshalJSON() ([]byte, error) {
	return json.Marshal([3]int32{r.Buf, r.Off, r.N})
}

// UnmarshalJSON decodes the [buf, off, n] form: exactly three integers,
// each within int32.
func (r *Ref) UnmarshalJSON(b []byte) error {
	var a []int64
	if err := json.Unmarshal(b, &a); err != nil {
		return fmt.Errorf("sched: ref must be [buf, off, n]: %w", jsonTypeError(err))
	}
	text := func() []byte { t, _ := json.Marshal(a); return t }
	if len(a) != 3 {
		return fmt.Errorf("sched: ref %s must be [buf, off, n], three integers", text())
	}
	for _, v := range a {
		if v != int64(int32(v)) {
			return fmt.Errorf("sched: ref %s: %d is outside int32", text(), v)
		}
	}
	r.Buf, r.Off, r.N = int32(a[0]), int32(a[1]), int32(a[2])
	return nil
}

func (r Ref) String() string { return fmt.Sprintf("[%d %d+%d]", r.Buf, r.Off, r.N) }

// jsonTypeError rewords an encoding/json type error in the file's own
// terms: the JSON field path, the value found there and the kind of value
// wanted, without the Go struct and type names the decoder reports, so a
// malformed file's error does not change when a type is renamed. Any
// other error passes through.
func jsonTypeError(err error) error {
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err
	}
	found := te.Value
	switch found {
	case "array", "object":
		found = "an " + found
	case "string", "number":
		found = "a " + found
	case "bool":
		found = "a boolean"
	}
	if te.Field == "" {
		return fmt.Errorf("found %s, want %s", found, jsonWant(te.Type))
	}
	return fmt.Errorf("field %q holds %s, want %s", te.Field, found, jsonWant(te.Type))
}

var textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()

// jsonWant names the JSON value that decodes into a value of type t.
func jsonWant(t reflect.Type) string {
	if reflect.PointerTo(t).Implements(textUnmarshaler) {
		return "a string"
	}
	switch t.Kind() {
	case reflect.Int32:
		return fmt.Sprintf("an integer from %d to %d", math.MinInt32, math.MaxInt32)
	case reflect.Int, reflect.Int64:
		return "an integer"
	case reflect.String:
		return "a string"
	case reflect.Slice:
		return "an array"
	case reflect.Struct:
		return "an object"
	}
	return "another value"
}

// Step is one action of one rank within a round. Which fields are
// meaningful depends on Kind: Send uses To/Src, Recv uses From/Dst,
// SendRecv all four, Copy uses Src/Dst.
type Step struct {
	Kind Kind  `json:"k"`
	To   int32 `json:"t,omitempty"`
	From int32 `json:"f,omitempty"`
	Src  Ref   `json:"s"`
	Dst  Ref   `json:"d"`
}

// Stats summarizes the cost structure of a rank's program or of a
// world.
type Stats struct {
	// Rounds is the number of rounds.
	Rounds int
	// Messages is the total number of point-to-point messages (a SendRecv
	// counts once: its send half).
	Messages int
	// WireBlocks is the total number of blocks crossing the wire.
	WireBlocks int
	// Copies and CopyBlocks count local Copy steps and the blocks they
	// move (the schedule's repack cost).
	Copies, CopyBlocks int
	// MaxRoundMessages is the largest per-round message count.
	MaxRoundMessages int
	// ScratchBlocks is the per-rank scratch footprint in blocks.
	ScratchBlocks int
}

// WorldStats computes the summary counters of a world, its programs
// indexed by rank, each with the world's round count: message and block
// totals over every rank, the header's rounds and scratch.
func WorldStats(world []*RankProgram) Stats {
	st := Stats{Rounds: len(world[0].Rounds)}
	for _, sz := range world[0].Scratch {
		st.ScratchBlocks += sz
	}
	for ri := range st.Rounds {
		msgs := 0
		for _, rp := range world {
			msgs += st.add(rp.Rounds[ri])
		}
		st.MaxRoundMessages = max(st.MaxRoundMessages, msgs)
	}
	return st
}

// add counts one step list into st and returns its message count.
func (st *Stats) add(steps []Step) int {
	msgs := 0
	for _, step := range steps {
		switch step.Kind {
		case Send, SendRecv:
			msgs++
			st.WireBlocks += int(step.Src.N)
		case Copy:
			st.Copies++
			st.CopyBlocks += int(step.Src.N)
		}
	}
	st.Messages += msgs
	return msgs
}

// RoundMatrix returns the blocks-sent matrix of round ri of a world:
// m[src][dst] is the number of blocks src sends to dst in that round.
// Out-of-range peers are skipped rather than indexed: the matrix is an
// inspection tool and must render worlds the verifier rejects instead
// of panicking on them.
func RoundMatrix(world []*RankProgram, ri int) [][]int {
	p := len(world)
	m := make([][]int, p)
	for src, rp := range world {
		m[src] = make([]int, p)
		for _, step := range rp.Rounds[ri] {
			if to := int(step.To); (step.Kind == Send || step.Kind == SendRecv) && to >= 0 && to < p {
				m[src][to] += int(step.Src.N)
			}
		}
	}
	return m
}

// schedule is a world's JSON form, which format-1 and format-2 files
// share: the header every program repeats, then the rounds, each
// listing every rank's steps in rank order. EncodeWorld and DecodeWorld
// are its only users.
type schedule struct {
	Format  int     `json:"format"`
	Name    string  `json:"name"`
	Ranks   int     `json:"ranks"`
	Coll    Coll    `json:"coll,omitempty"`
	Scratch []int   `json:"scratch,omitempty"`
	Rounds  []round `json:"rounds"`
}

// round is one round of a world file: Steps[r] is rank r's step list.
type round struct {
	Steps [][]Step `json:"steps"`
}

// EncodeWorld writes a world, its programs indexed by rank, each with
// the world's round count, as versioned JSON: rank 0's header at
// FormatVersion, then every round with each rank's steps.
func EncodeWorld(w io.Writer, world []*RankProgram) error {
	h := world[0]
	s := schedule{Format: FormatVersion, Name: h.Name, Ranks: len(world), Coll: h.Coll, Scratch: h.Scratch,
		Rounds: make([]round, len(h.Rounds))}
	for ri := range s.Rounds {
		s.Rounds[ri].Steps = make([][]Step, len(world))
		for r, rp := range world {
			s.Rounds[ri].Steps[r] = rp.Rounds[ri]
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&s)
}

// DecodeWorld reads one world from r: every rank's program, indexed by
// rank, all sharing the file's scratch declaration. It checks the
// format version and the shape — the rank count, one step list per rank
// in every round — and stays cheap otherwise, so tools can load a
// broken world to inspect it; run VerifyWorld for the proof.
func DecodeWorld(r io.Reader) ([]*RankProgram, error) {
	var s schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("sched: decoding schedule: %w", jsonTypeError(err))
	}
	if !formatReadable(s.Format) {
		return nil, fmt.Errorf("sched: schedule format %d, this build reads formats 1-%d — regenerate with a2asched gen", s.Format, FormatVersion)
	}
	if err := checkRanks(s.Ranks); err != nil {
		return nil, err
	}
	for ri, rd := range s.Rounds {
		if len(rd.Steps) != s.Ranks {
			return nil, fmt.Errorf("sched: round %d has %d step lists, want one per rank (%d)", ri, len(rd.Steps), s.Ranks)
		}
	}
	n := len(s.Rounds)
	progs, rounds := make([]RankProgram, s.Ranks), make([][]Step, s.Ranks*n)
	world := make([]*RankProgram, s.Ranks)
	for r := range world {
		progs[r] = RankProgram{Format: s.Format, Name: s.Name, Ranks: s.Ranks, Rank: r, Coll: s.Coll,
			Scratch: s.Scratch, Rounds: rounds[r*n : (r+1)*n : (r+1)*n]}
		for ri, rd := range s.Rounds {
			progs[r].Rounds[ri] = rd.Steps[r]
		}
		world[r] = &progs[r]
	}
	return world, nil
}
