package sched

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestRefJSONRoundTrip(t *testing.T) {
	t.Parallel()
	world := mustGen(t, "pairwise", 4)
	var buf bytes.Buffer
	if err := EncodeWorld(&buf, world); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWorld(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(world, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", world, got)
	}
	if err := VerifyWorld(got); err != nil {
		t.Fatalf("decoded world fails verification: %v", err)
	}
}

// TestDecodeRefusals: the pairwise world and program decode and verify,
// and each decodeRefusals edit of them makes DecodeWorld and DecodeRank
// fail with an error naming the edited value.
func TestDecodeRefusals(t *testing.T) {
	t.Parallel()
	world, err := DecodeWorld(strings.NewReader(pairwise2World))
	if err == nil {
		err = VerifyWorld(world)
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
		{"DecodeWorld", pairwise2World, func(r io.Reader) error { _, err := DecodeWorld(r); return err }},
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

// TestDecodeErrorsNameNoGoTypes decodes, with both DecodeWorld and
// DecodeRank, the malformed files a2asched's CLI golden test feeds its
// commands — the pairwise world and program with each decodeRefusals
// edit, the adversarial worlds and programs, a rank program with an
// out-of-range rank — plus each valid file read by the other decoder and
// a few more JSON type mismatches. No error may name a Go struct field
// or type; a type mismatch names the JSON field and the value found.
func TestDecodeErrorsNameNoGoTypes(t *testing.T) {
	t.Parallel()
	rp, err := GenerateRank("ring", 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ring4r1, ring8 bytes.Buffer
	if err := rp.Encode(&ring4r1); err != nil {
		t.Fatal(err)
	}
	if err := EncodeWorld(&ring8, mustGen(t, "ring", 8)); err != nil {
		t.Fatal(err)
	}
	files := []string{
		pairwise2World, pairwise2Rank0, ring4r1.String(), ring8.String(),
		strings.Replace(ring4r1.String(), `"rank": 1,`, `"rank": 9,`, 1),
		`{"format":2,"name":"x","ranks":4000,"rounds":[{"steps":[]}]}`,
		`{"format":2,"name":"pairwise","ranks":2,"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,1,1]}],[]]}]}`,
		`{"format":2,"name":"x","ranks":2,"rounds":[]}`,
		`{"format":2,"name":"x","ranks":1,"scratch":[1000000000],"rounds":[{"steps":[[]]}]}`,
		`{"format":2,"name":"x","ranks":8000,"rounds":[{"steps":[[]` + strings.Repeat(`,[]`, 7999) + `]}]}`,
		`{"format":2,"name":"x","ranks":2,"rank":0,"scratch":[1000000000],"rounds":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]},{"k":"recv","f":1,"s":[0,0,0],"d":[2,0,1000000000]}]]}`,
		`{"format":2,"name":"v-pairwise","ranks":3,"coll":"alltoallv","counts":[[1,2,0],[1,1,1],[2,0,1]],"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"copy","s":[0,2,1],"d":[1,1,1]}]]},{"steps":[[{"k":"sendrecv","t":1,"f":2,"s":[0,1,2],"d":[1,2,2]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"sendrecv","f":1,"s":[0,0,2],"d":[1,0,1]}]]},{"steps":[[{"k":"recv","f":1,"s":[0,0,0],"d":[1,1,1]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}],null]}]}`,
		`{"format":2,"name":"v-pairwise","ranks":3,"rank":1,"coll":"alltoallv","vsend":[1,1,1],"vrecv":[2,1,0],"rounds":[[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}]]}`,
		`[]`, `{"format":"2"}`, `{"format":2,"name":"x","ranks":2.5}`,
	}
	for _, e := range decodeRefusals {
		files = append(files, strings.Replace(pairwise2World, e.old, e.new, 1), strings.Replace(pairwise2Rank0, e.old, e.new, 1))
	}
	mismatches := map[string]string{
		`"k":"copy"`:  `"k":5`,
		`"s":[0,0,1]`: `"s":[0,"0",1]`,
		`"d":[1,0,1]`: `"d":{"buf":1}`,
	}
	for old, new := range mismatches {
		files = append(files, strings.Replace(pairwise2World, old, new, 1), strings.Replace(pairwise2Rank0, old, new, 1))
	}
	typeErrors := 0
	for _, file := range files {
		_, werr := DecodeWorld(strings.NewReader(file))
		_, rerr := DecodeRank(strings.NewReader(file))
		for _, err := range []error{werr, rerr} {
			if err == nil {
				continue
			}
			if msg := err.Error(); strings.Contains(msg, "Go struct field") || strings.Contains(msg, " of type ") || strings.Contains(msg, "sched.") {
				t.Errorf("decoding %.80s: error names Go types: %v", file, err)
			}
			if strings.Contains(err.Error(), ", want ") {
				typeErrors++
			}
		}
	}
	if typeErrors == 0 {
		t.Error("no file made a JSON type mismatch")
	}
	for _, c := range []struct{ file, want string }{
		{ring4r1.String(), `field "rounds" holds an array, want an object`},
		{strings.Replace(pairwise2World, `"t":1`, `"t":2147483648`, 1), `field "rounds.steps.t" holds number 2147483648, want an integer from -2147483648 to 2147483647`},
		{strings.Replace(pairwise2World, `"s":[0,0,1]`, `"s":[0,"0",1]`, 1), `ref must be [buf, off, n]: found a string, want an integer`},
		{strings.Replace(pairwise2World, `"k":"copy"`, `"k":5`, 1), `field "rounds.steps.k" holds a number, want a string`},
	} {
		if _, err := DecodeWorld(strings.NewReader(c.file)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("DecodeWorld(%.80s) = %v, want an error containing %q", c.file, err, c.want)
		}
	}
	if _, err := DecodeRank(strings.NewReader(ring8.String())); err == nil || !strings.Contains(err.Error(), `field "rounds" holds an object, want an array`) {
		t.Errorf("DecodeRank of a world file = %v, want it to name the rounds field", err)
	}
}

// TestKindNames: String gives each step kind its JSON name, the zero
// Kind an empty one and any other value a Kind(n) form; encoding a
// value that is no step kind is an error.
func TestKindNames(t *testing.T) {
	t.Parallel()
	for k, want := range map[Kind]string{Send: "send", Recv: "recv", SendRecv: "sendrecv", Copy: "copy", 0: "", 200: "Kind(200)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d is named %q, want %q", uint8(k), got, want)
		}
	}
	for _, k := range []Kind{0, Copy + 1, 200} {
		rp := &RankProgram{Name: "x", Ranks: 1, Rounds: [][]Step{{{Kind: k}}}}
		if err := rp.Encode(io.Discard); err == nil || !strings.Contains(err.Error(), "cannot encode unknown step kind") {
			t.Errorf("encoding Kind %d = %v, want the unknown kind refused", uint8(k), err)
		}
	}
}

// TestStepLayout pins the in-memory step at 36 bytes: a one-byte kind
// (padded to four), int32 peers and two refs of three int32s. MemBytes
// charges every step this size.
func TestStepLayout(t *testing.T) {
	t.Parallel()
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned sizes are a 64-bit platform's")
	}
	if got := unsafe.Sizeof(Step{}); got != 36 {
		t.Errorf("Step is %d bytes, want 36", got)
	}
	if got := unsafe.Sizeof(Ref{}); got != 12 {
		t.Errorf("Ref is %d bytes, want 12", got)
	}
	rp := &RankProgram{Rounds: [][]Step{make([]Step, 10)}}
	if got, want := rp.MemBytes(), int64(10*36+24+128); got != want {
		t.Errorf("MemBytes of a 10-step round = %d, want %d", got, want)
	}
}

func TestDecodeRejectsWrongFormat(t *testing.T) {
	t.Parallel()
	if _, err := DecodeWorld(strings.NewReader(`{"format":99,"name":"x","ranks":2,"rounds":[]}`)); err == nil {
		t.Fatal("format 99 accepted")
	}
	if _, err := DecodeWorld(strings.NewReader(`{"format":1,"name":"x","ranks":0,"rounds":[]}`)); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := DecodeWorld(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestSaveLoad: a rank program saved as an artifact reads back as the
// same program, and saving into a missing directory fails.
func TestSaveLoad(t *testing.T) {
	t.Parallel()
	rp, err := GenerateRank("ring", 6, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring6r2.json")
	if err := rp.Save(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := DecodeRank(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp, got) {
		t.Fatal("save/load mismatch")
	}
	if err := rp.Save(filepath.Join(t.TempDir(), "missing", "r.json")); err == nil {
		t.Fatal("save into a missing directory accepted")
	}
}

func TestStatsAndRoundMatrix(t *testing.T) {
	t.Parallel()
	p := 5
	world := mustGen(t, "pairwise", p)
	st := WorldStats(world)
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
	if st.MaxRoundMessages != p {
		t.Errorf("max round messages = %d, want %d", st.MaxRoundMessages, p)
	}
	// Round 1 of pairwise: every rank sends exactly one block to r+1.
	m := RoundMatrix(world, 1)
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
	if _, err := GenerateWorld("no-such", 4, nil); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if _, err := GenerateWorld("ring", 0, nil); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestHypercubeNeedsPowerOfTwo(t *testing.T) {
	t.Parallel()
	if _, err := GenerateWorld("hypercube", 6, nil); err == nil {
		t.Fatal("hypercube accepted 6 ranks")
	}
	if _, err := GenerateWorld("hypercube", 8, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	for _, name := range Generators() {
		if a, b := mustGen(t, name, 8), mustGen(t, name, 8); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations differ", name)
		}
	}
}
