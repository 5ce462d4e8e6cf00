package sched

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestRefJSONRoundTrip(t *testing.T) {
	t.Parallel()
	s, err := Generate("pairwise", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", s, got)
	}
	if err := Verify(got); err != nil {
		t.Fatalf("decoded schedule fails verification: %v", err)
	}
}

// TestDecodeRefusals: the pairwise world and program decode and verify,
// and each decodeRefusals edit of them makes Decode and DecodeRank fail
// with an error naming the edited value.
func TestDecodeRefusals(t *testing.T) {
	t.Parallel()
	s, err := Decode(strings.NewReader(pairwise2World))
	if err == nil {
		err = Verify(s)
	}
	if err != nil {
		t.Fatalf("unedited world: %v", err)
	}
	rp, err := DecodeRank(strings.NewReader(pairwise2Rank0))
	if err == nil {
		err = VerifyRank(rp)
	}
	if err != nil {
		t.Fatalf("unedited program: %v", err)
	}
	decoders := []struct {
		name, file string
		decode     func(io.Reader) error
	}{
		{"Decode", pairwise2World, func(r io.Reader) error { _, err := Decode(r); return err }},
		{"DecodeRank", pairwise2Rank0, func(r io.Reader) error { _, err := DecodeRank(r); return err }},
	}
	for _, e := range decodeRefusals {
		for _, d := range decoders {
			edited := strings.Replace(d.file, e.old, e.new, 1)
			if edited == d.file {
				t.Fatalf("%s: the %s file has no %s to edit", e.name, d.name, e.old)
			}
			if err := d.decode(strings.NewReader(edited)); err == nil || !strings.Contains(err.Error(), e.want) {
				t.Errorf("%s of the %s edit = %v, want an error naming %s", d.name, e.name, err, e.want)
			}
		}
	}
}

// TestKindNames: String gives each step kind its JSON name, the zero
// Kind an empty one and any other value a Kind(n) form; encoding a
// value that is no step kind is an error.
func TestKindNames(t *testing.T) {
	t.Parallel()
	for k, want := range map[Kind]string{Send: "send", Recv: "recv", SendRecv: "sendrecv", Copy: "copy", Reduce: "reduce", 0: "", 200: "Kind(200)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d is named %q, want %q", uint8(k), got, want)
		}
	}
	for _, k := range []Kind{0, Reduce + 1, 200} {
		rp := &RankProgram{Name: "x", Ranks: 1, Rounds: [][]Step{{{Kind: k}}}}
		if err := rp.Encode(io.Discard); err == nil || !strings.Contains(err.Error(), "cannot encode unknown step kind") {
			t.Errorf("encoding Kind %d = %v, want the unknown kind refused", uint8(k), err)
		}
	}
}

// TestStepLayout pins the in-memory step at 56 bytes on a 64-bit
// platform: a one-byte kind, int32 peers, two refs of three int32s and
// the operator label. MemBytes charges every step this size.
func TestStepLayout(t *testing.T) {
	t.Parallel()
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned sizes are a 64-bit platform's")
	}
	if got := unsafe.Sizeof(Step{}); got != 56 {
		t.Errorf("Step is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(Ref{}); got != 12 {
		t.Errorf("Ref is %d bytes, want 12", got)
	}
	rp := &RankProgram{Rounds: [][]Step{make([]Step, 10)}}
	if got, want := rp.MemBytes(), int64(10*56+24+128); got != want {
		t.Errorf("MemBytes of a 10-step round = %d, want %d", got, want)
	}
}

func TestDecodeRejectsWrongFormat(t *testing.T) {
	t.Parallel()
	if _, err := Decode(strings.NewReader(`{"format":99,"name":"x","ranks":2,"rounds":[]}`)); err == nil {
		t.Fatal("format 99 accepted")
	}
	if _, err := Decode(strings.NewReader(`{"format":1,"name":"x","ranks":0,"rounds":[]}`)); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	t.Parallel()
	s, err := Generate("ring", 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring6.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatal("save/load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestStatsAndRoundMatrix(t *testing.T) {
	t.Parallel()
	p := 5
	s, err := Generate("pairwise", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Rounds != p {
		t.Errorf("rounds = %d, want %d", st.Rounds, p)
	}
	if want := p * (p - 1); st.Messages != want {
		t.Errorf("messages = %d, want %d", st.Messages, want)
	}
	if want := p * (p - 1); st.WireBlocks != want {
		t.Errorf("wire blocks = %d, want %d", st.WireBlocks, want)
	}
	if st.Copies != p {
		t.Errorf("copies = %d, want %d (one self copy per rank)", st.Copies, p)
	}
	// Round 1 of pairwise: every rank sends exactly one block to r+1.
	m := s.RoundMatrix(1)
	for r := 0; r < p; r++ {
		for d := 0; d < p; d++ {
			want := 0
			if d == (r+1)%p {
				want = 1
			}
			if m[r][d] != want {
				t.Fatalf("round 1 matrix[%d][%d] = %d, want %d", r, d, m[r][d], want)
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	t.Parallel()
	if _, err := Generate("no-such", 4, nil); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := Generate("ring", 0, nil); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestHypercubeNeedsPowerOfTwo(t *testing.T) {
	t.Parallel()
	if _, err := Generate("hypercube", 6, nil); err == nil {
		t.Fatal("hypercube accepted 6 ranks")
	}
	if _, err := Generate("hypercube", 8, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	for _, name := range Generators() {
		p := 8
		a, err := Generate(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Generate(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations differ", name)
		}
	}
}
