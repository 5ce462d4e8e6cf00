package sched

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"alltoallx/internal/netmodel"
	"alltoallx/internal/sim"
	"alltoallx/internal/topo"
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

// The format-2 alltoallv artifacts of TestVerifyRejectsAlltoallv: the
// v-pairwise schedule of the count matrix [[1 2 0] [1 1 1] [2 0 1]] as
// a world and as rank 1's program, encoded by this package's alltoallv
// generator before the collective was removed. Decoding drops
// their counts, vsend and vrecv fields without a word.
var (
	alltoallvWorldFile = `{"format":2,"name":"v-pairwise","ranks":3,"coll":"alltoallv","counts":[[1,2,0],[1,1,1],[2,0,1]],"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"copy","s":[0,2,1],"d":[1,1,1]}]]},{"steps":[[{"k":"sendrecv","t":1,"f":2,"s":[0,1,2],"d":[1,2,2]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"sendrecv","f":1,"s":[0,0,2],"d":[1,0,1]}]]},{"steps":[[{"k":"recv","f":1,"s":[0,0,0],"d":[1,1,1]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}],null]}]}`
	alltoallvRankFile  = `{"format":2,"name":"v-pairwise","ranks":3,"rank":1,"coll":"alltoallv","vsend":[1,1,1],"vrecv":[2,1,0],"rounds":[[{"k":"copy","s":[0,1,1],"d":[1,2,1]}],[{"k":"sendrecv","t":2,"s":[0,2,1],"d":[1,0,2]}],[{"k":"send","s":[0,0,1],"d":[0,0,0]}]]}`
)

// removedCollFile is a compact-encoded world or rank program file edited
// to declare coll, a removed reduction collective, with the operator
// label such files carried.
func removedCollFile(file, coll string) string {
	return strings.Replace(file, `"ranks":2,`, fmt.Sprintf(`"ranks":2,"coll":%q,"op":"any",`, coll), 1)
}

// The 2-rank pairwise world and its rank 0 program, compact-encoded, and
// the edits of TestDecodeRefusals. Each edit replaces the first
// occurrence of old in both files, and both decoders must then refuse
// the file with an error naming want: a ref of other than three
// integers, a kind name no step kind has (the removed reduce step's
// included), and numbers outside int32. A ref of four integers or two
// once decoded as three, dropping the extra element or zero-filling the
// missing one, and the edited files then passed verification.
var (
	pairwise2World = `{"format":2,"name":"pairwise","ranks":2,"rounds":[{"steps":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"copy","s":[0,1,1],"d":[1,1,1]}]]},{"steps":[[{"k":"sendrecv","t":1,"f":1,"s":[0,1,1],"d":[1,1,1]}],[{"k":"sendrecv","s":[0,0,1],"d":[1,0,1]}]]}]}`
	pairwise2Rank0 = `{"format":2,"name":"pairwise","ranks":2,"rank":0,"rounds":[[{"k":"copy","s":[0,0,1],"d":[1,0,1]}],[{"k":"sendrecv","t":1,"f":1,"s":[0,1,1],"d":[1,1,1]}]]}`
	decodeRefusals = []struct{ name, old, new, want string }{
		{"four-element ref", `"s":[0,1,1]`, `"s":[0,1,1,99]`, "ref [0,1,1,99]"},
		{"two-element ref", `"s":[0,1,1]`, `"s":[0,1]`, "ref [0,1]"},
		{"empty ref", `"s":[0,1,1]`, `"s":[]`, "ref []"},
		{"unknown kind", `"k":"sendrecv"`, `"k":"warp"`, `unknown step kind "warp"`},
		{"reduce kind", `"k":"sendrecv"`, `"k":"reduce"`, `unknown step kind "reduce"`},
		{"peer past int32", `"t":1`, `"t":2147483648`, "2147483648"},
		{"ref element past int32", `"s":[0,1,1]`, `"s":[0,-2147483649,1]`, "-2147483649"},
	}
)

// seedRanks is the largest world the fuzz seeds compile: every
// generator at 2 to seedRanks ranks (hypercube at powers of two).
const seedRanks = 12

// The caps under which FuzzVerify runs an accepted world: Exec
// allocates every declared scratch space, and the simulator walks every
// step, so a world declaring a billion-block scratch space, or holding
// a huge step list, is verified but not run. Every seed world runs.
const (
	execMaxRanks   = 16
	execMaxSteps   = 4096    // over every rank's program
	execMaxScratch = 1 << 16 // blocks, over a rank's declared spaces
)

// executable reports whether world lies under FuzzVerify's caps.
func executable(world []*RankProgram) bool {
	if len(world) > execMaxRanks {
		return false
	}
	scratch := 0
	for _, sz := range world[0].Scratch {
		if scratch += sz; scratch > execMaxScratch {
			return false
		}
	}
	steps := 0
	for _, rp := range world {
		steps += rp.Steps()
	}
	return steps <= execMaxSteps
}

// runOnSim runs every rank's program of world on the simulator with
// real 3-byte blocks, twice, and checks every byte it delivers; a
// deadlock fails too.
func runOnSim(world []*RankProgram) error {
	model := netmodel.Dane()
	p := len(world)
	model.Node = topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: p}
	_, err := sim.RunCluster(sim.ClusterConfig{Model: model, Nodes: 1, PPN: p, Seed: 1}, execBody(world, 3))
	return err
}

// FuzzVerify decodes arbitrary bytes as a world file into rank programs
// and verifies them with the world driver. Neither may panic, and
// whenever VerifyWorld accepts, every program must pass VerifyRank and,
// under the execution caps, the world must move the right bytes on the
// simulator: verifier accepts, executor delivers.
func FuzzVerify(f *testing.F) {
	for _, name := range Generators() {
		for p := 2; p <= seedRanks; p++ {
			world, err := GenerateWorld(name, p, nil)
			if err != nil {
				continue // hypercubes need a power of two
			}
			if !executable(world) {
				f.Fatalf("seed %s at %d ranks exceeds the execution caps", name, p)
			}
			var buf bytes.Buffer
			if err := EncodeWorld(&buf, world); err != nil {
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
	f.Add([]byte(alltoallvWorldFile))
	f.Add([]byte(alltoallvRankFile))
	for _, e := range decodeRefusals {
		f.Add([]byte(strings.Replace(pairwise2World, e.old, e.new, 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		world, err := DecodeWorld(bytes.NewReader(data))
		if err != nil || VerifyWorld(world) != nil {
			return
		}
		if err := programsPassVerifyRank(world); err != nil {
			t.Fatalf("VerifyWorld accepts the world, VerifyRank rejects a program: %v", err)
		}
		if !executable(world) {
			return
		}
		if err := runOnSim(world); err != nil {
			t.Fatalf("VerifyWorld accepts the world, the simulator run fails: %v", err)
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
	for _, name := range Generators() {
		for p := 2; p <= seedRanks; p++ {
			for _, r := range []int{0, p - 1} {
				if rp, err := GenerateRank(name, p, r, nil); err == nil {
					add(rp)
				}
			}
		}
	}
	add(aliasingProgram(f, 1<<31))
	f.Add([]byte(hugeRecvFile))
	f.Add([]byte(alltoallvWorldFile))
	f.Add([]byte(alltoallvRankFile))
	for _, e := range decodeRefusals {
		f.Add([]byte(strings.Replace(pairwise2Rank0, e.old, e.new, 1)))
	}
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
