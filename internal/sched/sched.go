// Package sched is the communication-schedule subsystem: an explicit
// intermediate representation for collective exchanges (all-to-all,
// reduce-scatter, allreduce), generators that compile
// algorithms into it, a static verifier that proves a schedule correct
// before it ever runs, and an executor that runs any verified schedule
// over comm.Comm on both substrates.
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
// A Schedule is an ordered list of Rounds; each Round holds one step list
// per rank. All offsets and lengths are in block units (the per-rank-pair
// block of MPI_Alltoall), so one schedule serves every message size.
// Steps reference three kinds of buffer space: the user send buffer
// (SpaceSend), the user recv buffer (SpaceRecv), and per-rank scratch
// spaces declared by Schedule.Scratch. User-space sizes depend on the
// collective (RankProgram.SpaceSize): Ranks blocks each for all-to-all
// and allreduce, a single recv block for reduce-scatter.
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
	"encoding/json"
	"fmt"
	"io"
	"os"

	"alltoallx/internal/artifact"
)

// FormatVersion is the on-disk JSON format version Encode writes. Bump
// on incompatible IR changes; Decode rejects unknown versions rather
// than silently executing a stale schedule. Version 2 added the
// collective kind and the reduction operator label; version-1 artifacts
// (plain all-to-all schedules) decode unchanged, since every added field
// defaults to the all-to-all reading. Version 2 also had an alltoallv
// collective, since removed: its artifacts decode, and the verifier
// rejects them as an unknown collective.
const FormatVersion = 2

// formatReadable reports whether this build can read an artifact of the
// given format version.
func formatReadable(f int) bool { return f == 1 || f == FormatVersion }

// Coll names the collective a schedule implements. The zero value
// (empty string, omitted in JSON) reads as CollAlltoall so version-1
// artifacts keep their meaning.
type Coll string

// The collectives the IR can express.
const (
	// CollAlltoall: send space holds Ranks blocks (one per destination),
	// recv space holds Ranks blocks (one per source), every (src, dst)
	// block delivered exactly once.
	CollAlltoall Coll = "alltoall"
	// CollReduceScatter: send space holds Ranks blocks (this rank's
	// contribution to every destination), recv space holds 1 block that
	// must end as the reduction of every rank's contribution for this
	// rank — each contribution entering exactly once.
	CollReduceScatter Coll = "reduce-scatter"
	// CollAllreduce: send space holds Ranks blocks (the input vector
	// split into Ranks blocks), recv space holds Ranks blocks, and every
	// recv block b must end as the reduction of every rank's block b.
	CollAllreduce Coll = "allreduce"
)

// valid reports whether c is a known collective kind.
func (c Coll) valid() bool {
	switch c {
	case CollAlltoall, CollReduceScatter, CollAllreduce:
		return true
	}
	return false
}

// reduction reports whether the collective combines data with an
// operator (and so may contain Reduce steps).
func (c Coll) reduction() bool { return c == CollReduceScatter || c == CollAllreduce }

// OpAny is the operator label of the bundled reduction generators: their
// schedules are valid for any associative, commutative operator, so the
// label constrains consistency (every Reduce step must carry the
// schedule's label), not the executor's choice of operator.
const OpAny = "any"

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
	// Reduce combines Src into Dst within this rank's buffers:
	// Dst = Dst op Src, elementwise over equal-length refs, using the
	// operator the schedule is labeled with (Step.Op must equal
	// Schedule.Op; the verifier rejects a mismatch). Reduce steps are
	// only legal in reduction schedules (reduce-scatter, allreduce); the
	// executor runs them with the operator installed via Exec.SetOp.
	Reduce
)

// kindNames are the kinds' names, by Kind; the zero Kind's is empty.
var kindNames = [...]string{"", "send", "recv", "sendrecv", "copy", "reduce"}

// String returns the kind's name: "send", "recv", "sendrecv", "copy" or
// "reduce", empty for the zero Kind, Kind(n) for any other value.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its name, refusing a value that is no
// step kind.
func (k Kind) MarshalText() ([]byte, error) {
	if k < Send || k > Reduce {
		return nil, fmt.Errorf("sched: cannot encode unknown step kind %q", k)
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a kind's name, refusing any other.
func (k *Kind) UnmarshalText(b []byte) error {
	for i := Send; i <= Reduce; i++ {
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
		return fmt.Errorf("sched: ref must be [buf, off, n]: %w", err)
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

// Step is one action of one rank within a round. Which fields are
// meaningful depends on Kind: Send uses To/Src, Recv uses From/Dst,
// SendRecv all four, Copy uses Src/Dst, Reduce uses Src/Dst/Op.
type Step struct {
	Kind Kind  `json:"k"`
	To   int32 `json:"t,omitempty"`
	From int32 `json:"f,omitempty"`
	Src  Ref   `json:"s"`
	Dst  Ref   `json:"d"`
	// Op is the operator label of a Reduce step; it must match the
	// schedule's Op (per-step so a spliced or hand-edited artifact cannot
	// silently combine under the wrong operator).
	Op string `json:"o,omitempty"`
}

// Round is one synchronization unit of the schedule: Steps[r] is rank r's
// step list. Every send in a round is received in the same round.
type Round struct {
	Steps [][]Step `json:"steps"`
}

// Schedule is a complete per-rank communication schedule for a
// collective over Ranks ranks.
type Schedule struct {
	// Format is the IR format version (FormatVersion).
	Format int `json:"format"`
	// Name labels the schedule (generator name, e.g. "ring").
	Name string `json:"name"`
	// Ranks is the world size the schedule is compiled for.
	Ranks int `json:"ranks"`
	// Coll is the collective the schedule implements; empty means
	// CollAlltoall (the version-1 reading). Use Collective() to read it.
	Coll Coll `json:"coll,omitempty"`
	// Op is the reduction-operator label; required for (and only legal
	// on) reduction collectives. The bundled generators emit OpAny.
	Op string `json:"op,omitempty"`
	// Scratch declares per-rank scratch spaces: Scratch[i] is the size in
	// blocks of space SpaceScratch+i. Every rank gets its own copy.
	Scratch []int `json:"scratch,omitempty"`
	// Rounds are executed in order under the round discipline.
	Rounds []Round `json:"rounds"`
}

// Collective returns the schedule's collective kind, reading the empty
// (version-1) value as CollAlltoall.
func (s *Schedule) Collective() Coll {
	if s.Coll == "" {
		return CollAlltoall
	}
	return s.Coll
}

// Stats summarizes a schedule's cost structure.
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
	// Reduces and ReduceBlocks count Reduce steps and the blocks they
	// combine (the schedule's compute cost).
	Reduces, ReduceBlocks int
	// MaxRoundMessages is the largest per-round message count.
	MaxRoundMessages int
	// ScratchBlocks is the per-rank scratch footprint in blocks.
	ScratchBlocks int
}

// Stats computes the schedule's summary counters.
func (s *Schedule) Stats() Stats {
	st := Stats{Rounds: len(s.Rounds)}
	for _, sz := range s.Scratch {
		st.ScratchBlocks += sz
	}
	for _, rd := range s.Rounds {
		msgs := 0
		for _, steps := range rd.Steps {
			for _, step := range steps {
				switch step.Kind {
				case Send, SendRecv:
					msgs++
					st.WireBlocks += int(step.Src.N)
				case Copy:
					st.Copies++
					st.CopyBlocks += int(step.Src.N)
				case Reduce:
					st.Reduces++
					st.ReduceBlocks += int(step.Src.N)
				}
			}
		}
		st.Messages += msgs
		if msgs > st.MaxRoundMessages {
			st.MaxRoundMessages = msgs
		}
	}
	return st
}

// RoundMatrix returns the blocks-sent matrix of round ri: m[src][dst] is
// the number of blocks src sends to dst in that round. Out-of-range
// ranks or peers are skipped rather than indexed: the matrix is an
// inspection tool and must render malformed artifacts (which Verify
// rejects) instead of panicking on them.
func (s *Schedule) RoundMatrix(ri int) [][]int {
	m := make([][]int, s.Ranks)
	for i := range m {
		m[i] = make([]int, s.Ranks)
	}
	for r, steps := range s.Rounds[ri].Steps {
		if r >= s.Ranks {
			break
		}
		for _, step := range steps {
			switch step.Kind {
			case Send, SendRecv:
				if to := int(step.To); to >= 0 && to < s.Ranks {
					m[r][to] += int(step.Src.N)
				}
			}
		}
	}
	return m
}

// Encode writes the schedule as versioned JSON (the Format field is
// forced to FormatVersion).
func (s *Schedule) Encode(w io.Writer) error {
	s.Format = FormatVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// Decode reads one schedule from r. It checks the format version and
// basic shape; run Verify for the full correctness proof (Decode stays
// cheap so tools can load a broken schedule to inspect it).
func Decode(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("sched: decoding schedule: %w", err)
	}
	if !formatReadable(s.Format) {
		return nil, fmt.Errorf("sched: schedule format %d, this build reads formats 1-%d — regenerate with a2asched gen", s.Format, FormatVersion)
	}
	if err := checkRanks(s.Ranks); err != nil {
		return nil, err
	}
	return &s, nil
}

// Save writes the schedule to path atomically, the same artifact
// discipline as autotune tables (internal/artifact).
func (s *Schedule) Save(path string) error {
	return artifact.Save(path, "sched: saving schedule", s.Encode)
}

// Load reads the schedule at path (Decode semantics: format-checked, not
// verified).
func Load(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sched: loading schedule: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
