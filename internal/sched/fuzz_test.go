package sched

import (
	"bytes"
	"strings"
	"testing"
)

// The adversarial files of TestVerifyStateFollowsSteps: a billion-block
// scratch declaration and an 8,000-rank declaration, neither with a
// step; and of TestVerifyBudgetsCells: rank 0 of a 2-rank world, whose
// second step receives a billion blocks into its billion-block scratch
// space.
var (
	hugeScratchFile = `{"format":2,"name":"x","ranks":1,"scratch":[1000000000],"rounds":[{"steps":[[]]}]}`
	manyRanksFile   = `{"format":2,"name":"x","ranks":8000,"rounds":[{"steps":[[]` + strings.Repeat(`,[]`, 7999) + `]}]}`
	hugeRecvFile    = `{"format":2,"name":"x","ranks":2,"rank":0,"scratch":[1000000000],"rounds":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]},{"k":"recv","f":1,"s":[0,0,0],"d":[2,0,1000000000]}]]}`
)

// FuzzVerify decodes arbitrary bytes as a schedule and verifies it with
// the world driver. Neither may panic, and whenever Verify accepts, every
// slice must pass VerifyRank.
func FuzzVerify(f *testing.F) {
	for _, name := range AllGenerators() {
		for p := 2; p <= 6; p++ {
			s, err := Generate(name, p, nil)
			if err != nil {
				continue // hypercubes need a power of two
			}
			var buf bytes.Buffer
			if err := s.Encode(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			if name == "pairwise" && p == 4 {
				f.Add(bytes.Replace(buf.Bytes(), []byte(`"format": 2`), []byte(`"format": 1`), 1))
			}
		}
	}
	f.Add([]byte(hugeScratchFile))
	f.Add([]byte(manyRanksFile))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil || Verify(s) != nil {
			return
		}
		if err := slicesPassVerifyRank(s); err != nil {
			t.Fatalf("Verify accepts the schedule, VerifyRank rejects a slice: %v", err)
		}
	})
}

// FuzzVerifyRank decodes arbitrary bytes as a rank program and verifies
// it with the lone driver. Neither may panic, and a program
// VerifyRank accepts must survive an encode and decode round trip.
func FuzzVerifyRank(f *testing.F) {
	add := func(rp *RankProgram) {
		var buf bytes.Buffer
		if err := rp.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, name := range AllGenerators() {
		for p := 2; p <= 6; p++ {
			for _, r := range []int{0, p - 1} {
				if rp, err := GenerateRank(name, p, r, nil); err == nil {
					add(rp)
				}
			}
		}
	}
	add(aliasingProgram(f, 1<<40+1))
	f.Add([]byte(hugeRecvFile))
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := DecodeRank(bytes.NewReader(data))
		if err != nil || VerifyRank(rp) != nil {
			return
		}
		var buf bytes.Buffer
		if err := rp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeRank(&buf)
		if err == nil {
			err = VerifyRank(again)
		}
		if err != nil {
			t.Fatalf("an accepted rank program fails after an encode and decode round trip: %v", err)
		}
	})
}
