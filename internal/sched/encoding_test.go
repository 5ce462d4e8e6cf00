package sched

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEncodingGolden pins the JSON encoding of every goldenWorld: the
// line of testdata/encoding.golden for a world holds the SHA-256 of its
// world file (EncodeWorld of its GenerateWorld programs), then the
// SHA-256 over the SHA-256s of its ranks' GenerateRank encodings, in
// rank order. Every artifact a2asched gen,
// slice or fetch wrote is one of these encodings, so the file has no
// -update path, like digests.golden. On the worlds of up to 32 ranks,
// decoding each encoding must give back what was encoded; the two
// 256-rank worlds (225 MB of JSON between them) are only hashed, and
// -short skips them.
func TestEncodingGolden(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(filepath.Join("testdata", "encoding.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		fields := strings.Fields(line)
		want[strings.Join(fields[:len(fields)-2], " ")] = line
	}
	if ws := goldenWorlds(); len(want) != len(ws) {
		t.Fatalf("encoding.golden holds %d worlds, want %d", len(want), len(ws))
	}
	for _, w := range goldenWorlds() {
		p, m := w.world(t)
		big := p > 32
		if big && testing.Short() {
			continue
		}
		programs, err := GenerateWorld(w.name, p, m)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		world := encodedSum(t, w, programs, func(out io.Writer) error { return EncodeWorld(out, programs) }, DecodeWorld, !big)
		programs = nil // the rank programs below hold one rank at a time
		ranks := sha256.New()
		for r := 0; r < p; r++ {
			rp, err := GenerateRank(w.name, p, r, m)
			if err != nil {
				t.Fatalf("%v rank %d: %v", w, r, err)
			}
			sum := encodedSum(t, w, rp, rp.Encode, DecodeRank, !big)
			ranks.Write(sum[:])
		}
		if got := fmt.Sprintf("%v %x %x", w, world, ranks.Sum(nil)); got != want[w.String()] {
			t.Errorf("encoding.golden:\n got %s\nwant %s", got, want[w.String()])
		}
	}
}

// encodedSum returns the SHA-256 of x's encoding. With roundTrip it also
// checks that decoding the encoding gives back x.
func encodedSum[T any](t *testing.T, w goldenWorld, x T, encode func(io.Writer) error, decode func(io.Reader) (T, error), roundTrip bool) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	var buf bytes.Buffer
	out := io.Writer(h)
	if roundTrip {
		out = io.MultiWriter(h, &buf)
	}
	if err := encode(out); err != nil {
		t.Fatalf("%v: encoding %T: %v", w, x, err)
	}
	if roundTrip {
		back, err := decode(&buf)
		if err != nil {
			t.Fatalf("%v: decoding %T: %v", w, x, err)
		}
		if !reflect.DeepEqual(back, x) {
			t.Fatalf("%v: %T differs after an encode and decode round trip", w, x)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
