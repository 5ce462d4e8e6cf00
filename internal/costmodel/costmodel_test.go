package costmodel

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// powerLaw samples T(x) = c * x^k at the given xs.
func powerLaw(c, k float64, xs []float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = c * math.Pow(x, k)
	}
	return ys
}

func TestFitRecoversPowerLaw(t *testing.T) {
	t.Parallel()
	xs := []float64{4, 64, 1024, 16384}
	f, err := FitPoints(xs, powerLaw(3e-6, 0.8, xs))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-0.8) > 1e-9 {
		t.Errorf("slope %g, want 0.8", f.Slope)
	}
	if math.Abs(math.Exp(f.Intercept)-3e-6) > 1e-12 {
		t.Errorf("intercept e^%g, want 3e-6", f.Intercept)
	}
	if f.R2 < 0.999999 {
		t.Errorf("exact points fit with R2 %g", f.R2)
	}
	if f.LowConfidence() {
		t.Error("exact 4-point fit flagged low confidence")
	}
	if got := f.Predict(256); math.Abs(got-3e-6*math.Pow(256, 0.8)) > 1e-12 {
		t.Errorf("Predict(256) = %g", got)
	}
}

// TestFitDegenerateInputs pins the satellite requirement: constant
// timings, a single probe point, and non-monotone noise must error or
// flag low confidence — never feed a garbage crossover downstream.
func TestFitDegenerateInputs(t *testing.T) {
	t.Parallel()

	// Single probe point: no slope is determined — hard error.
	if _, err := FitPoints([]float64{64}, []float64{1e-5}); err == nil {
		t.Error("single-point fit accepted")
	}
	// All probes at one x: same degeneracy through a different door.
	if _, err := FitPoints([]float64{64, 64, 64}, []float64{1e-5, 2e-5, 3e-5}); err == nil {
		t.Error("single-x fit accepted")
	}
	// Length mismatch and non-positive coordinates: hard errors.
	if _, err := FitPoints([]float64{4, 8}, []float64{1e-5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitPoints([]float64{4, 8}, []float64{1e-5, 0}); err == nil {
		t.Error("zero timing accepted (log undefined)")
	}
	if _, err := FitPoints([]float64{-4, 8}, []float64{1e-5, 2e-5}); err == nil {
		t.Error("negative size accepted (log undefined)")
	}

	// Constant timings: a valid zero-slope law, fitted exactly.
	f, err := FitPoints([]float64{4, 64, 1024}, []float64{2e-5, 2e-5, 2e-5})
	if err != nil {
		t.Fatalf("constant timings rejected: %v", err)
	}
	if math.Abs(f.Slope) > 1e-12 {
		t.Errorf("constant timings fitted slope %g, want 0", f.Slope)
	}
	if f.LowConfidence() {
		t.Error("exact constant fit flagged low confidence")
	}

	// Non-monotone noise: the line explains little variance — the fit
	// must come back LowConfidence, and crossovers against it must be
	// suppressed.
	noisy, err := FitPoints([]float64{4, 16, 64, 256, 1024}, []float64{1e-5, 9e-5, 2e-6, 7e-5, 3e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !noisy.LowConfidence() {
		t.Errorf("non-monotone noise fitted with R2 %g not flagged low confidence", noisy.R2)
	}
	clean, err := FitPoints([]float64{4, 16, 64, 256, 1024}, powerLaw(1e-6, 1, []float64{4, 16, 64, 256, 1024}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Crossover(noisy, clean); ok {
		t.Error("crossover against a low-confidence fit not suppressed")
	}
	// Two-point fits have no residual to estimate confidence from.
	two, err := FitPoints([]float64{4, 8}, []float64{1e-5, 2e-5})
	if err != nil {
		t.Fatal(err)
	}
	if !two.LowConfidence() {
		t.Error("two-point fit not flagged low confidence")
	}
}

func TestCrossover(t *testing.T) {
	t.Parallel()
	xs := []float64{4, 64, 1024, 16384}
	// a = 1e-4 * x^0.2, b = 1e-6 * x^0.9: cross where the exponents meet.
	a, _ := FitPoints(xs, powerLaw(1e-4, 0.2, xs))
	b, _ := FitPoints(xs, powerLaw(1e-6, 0.9, xs))
	x, ok := Crossover(a, b)
	if !ok {
		t.Fatal("crossing power laws reported as non-crossing")
	}
	want := math.Exp(math.Log(1e-4/1e-6) / (0.9 - 0.2))
	if math.Abs(x-want)/want > 1e-9 {
		t.Errorf("crossover at %g, want %g", x, want)
	}
	da := a.Predict(x)
	if db := b.Predict(x); math.Abs(da-db)/da > 1e-9 {
		t.Errorf("predictions differ at the crossover: %g vs %g", da, db)
	}
	// Parallel laws never cross.
	c, _ := FitPoints(xs, powerLaw(2e-6, 0.9, xs))
	if _, ok := Crossover(b, c); ok {
		t.Error("parallel fits reported crossing")
	}
}

func testSet() *Set {
	xs := []float64{4, 64, 1024}
	a, _ := FitPoints(xs, powerLaw(1e-4, 0.2, xs))
	b, _ := FitPoints(xs, powerLaw(1e-6, 0.9, xs))
	return &Set{
		Version: SetVersion, Machine: "Dane", Op: "alltoall",
		Nodes: 4, PPN: 8, Runs: 1, Seed: 1,
		ProbeSizes: []int{4, 64, 1024},
		Models:     []Model{{Name: "flat", Fit: a}, {Name: "steep", Fit: b}},
	}
}

func TestSetBestAndCrossovers(t *testing.T) {
	t.Parallel()
	s := testSet()
	if m, ok := s.Best(4); !ok || m.Name != "steep" {
		t.Errorf("Best(4) = %v, want steep (cheap constant)", m.Name)
	}
	if m, ok := s.Best(1 << 20); !ok || m.Name != "flat" {
		t.Errorf("Best(1M) = %v, want flat (small exponent)", m.Name)
	}
	cross := s.Crossovers(1, 1e9)
	if len(cross) != 1 {
		t.Fatalf("crossovers: %v, want exactly 1", cross)
	}
	if cross[0].A != "flat" || cross[0].B != "steep" {
		t.Errorf("crossing pair %s/%s", cross[0].A, cross[0].B)
	}
	// A range that excludes the crossing finds none.
	if c := s.Crossovers(1, 2); len(c) != 0 {
		t.Errorf("out-of-range crossovers: %v", c)
	}
}

func TestSetRoundTripAndValidation(t *testing.T) {
	t.Parallel()
	s := testSet()
	path := filepath.Join(t.TempDir(), "models.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != s.Hash() {
		t.Error("hash changed across save/load")
	}
	if len(loaded.Models) != 2 || loaded.Models[1].Slope != s.Models[1].Slope {
		t.Error("models corrupted across save/load")
	}

	cases := []struct {
		name   string
		mutate func(*Set)
	}{
		{"future version", func(s *Set) { s.Version = SetVersion + 1 }},
		{"no machine", func(s *Set) { s.Machine = "" }},
		{"bad world", func(s *Set) { s.Nodes = 0 }},
		{"one probe size", func(s *Set) { s.ProbeSizes = []int{4} }},
		{"unsorted probes", func(s *Set) { s.ProbeSizes = []int{64, 4, 1024} }},
		{"no models", func(s *Set) { s.Models = nil }},
		{"unnamed model", func(s *Set) { s.Models[0].Name = "" }},
		{"duplicate model", func(s *Set) { s.Models[1].Name = s.Models[0].Name }},
	}
	for _, tc := range cases {
		bad := testSet()
		tc.mutate(bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestHashTracksModelChanges(t *testing.T) {
	t.Parallel()
	a, b := testSet(), testSet()
	if a.Hash() != b.Hash() {
		t.Error("identical sets hash differently")
	}
	b.Models[0].Slope += 1e-6
	if a.Hash() == b.Hash() {
		t.Error("changed slope left hash unchanged")
	}
}

func TestLoadMissing(t *testing.T) {
	t.Parallel()
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file loaded")
	}
	// A torn/invalid file must not validate.
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("invalid JSON loaded")
	}
}

// FuzzDecodeSet feeds arbitrary bytes to Decode. It must never panic,
// and a set it accepts must survive encode → decode → encode with
// identical bytes.
func FuzzDecodeSet(f *testing.F) {
	var good bytes.Buffer
	if err := testSet().Encode(&good); err != nil {
		f.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(good.Bytes())); err != nil {
		f.Fatalf("seed set rejected: %v", err)
	}
	for _, b := range [][]byte{good.Bytes(), good.Bytes()[:good.Len()/2], []byte(`{"version":1}`), []byte(`null`)} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Encode(&first); err != nil {
			t.Fatalf("encoding an accepted set: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted set does not decode after encoding: %v", err)
		}
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode → decode → encode changed the set:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
