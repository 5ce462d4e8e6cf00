// Command a2asched generates, verifies, diffs and pretty-prints
// communication schedules — the offline tooling of the internal/sched
// subsystem. Schedules are shareable JSON artifacts like autotune tables:
// generate one per world shape, verify it statically (every block
// delivered exactly once, every send matched within its round, all
// offsets in range), and ship it for inspection or execution
// (core.New("sched:<generator>", ...) compiles and verifies the same
// schedules at construction).
//
// Usage:
//
//	a2asched list
//	a2asched gen -name ring -ranks 16 -o ring16.json
//	a2asched gen -name torus -nodes 4 -ppn 8 -o torus4x8.json
//	a2asched verify ring16.json
//	a2asched print ring16.json
//	a2asched diff ring16.json torus4x8.json
//	a2asched slice -name ring -ranks 4096 -rank 7 -o ring4096r7.json
//	a2asched slice -name torus -nodes 64 -ppn 32 -rank 0 -world
//
// slice compiles a single rank's program (sched.GenerateRank) without
// materializing the whole world — the form every rank runs. It is
// locally verified; -world additionally proves the whole world
// (sched.Prove), every rank's rounds walked in step one round at a time,
// so the proof covers which block lands where at any world size.
//
// fetch resolves a rank program through the schedule service, a
// registry directory: it compiles the rank locally and checks it against
// the world's proof record, proving the world there on a miss:
//
//	a2asched fetch -root /var/lib/a2asched -name torus -nodes 4 -ppn 8 -rank 3
//	a2asched fetch -root /var/lib/a2asched -name ring -ranks 16 -rank 0 -o r0.json
//
// and list -root walks a registry directory's proof records.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"alltoallx/internal/sched"
	"alltoallx/internal/schedreg"
	"alltoallx/internal/topo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = runList(os.Args[2:])
	case "gen":
		err = runGen(os.Args[2:])
	case "slice":
		err = runSlice(os.Args[2:])
	case "fetch":
		err = runFetch(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "print":
		err = runPrint(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "a2asched: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "a2asched:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `a2asched <command> [flags]

commands:
  list                      list schedule generators
         [-root DIR]        instead: list a registry directory's proved worlds
                            (ranks covered and record bytes) and rejections
  gen    -name G -ranks N   generate + verify a schedule (JSON to -o or stdout)
         [-nodes N -ppn P]  give the generator a topology (torus grid); implies -ranks
  slice  -name G -ranks N   compile + verify ONE rank's program (rank-sliced, O(slice)
         -rank R [-world]   memory; -world also proves the whole world, content included)
  fetch  -root DIR          compile one rank's program and match it against its
         -name G -ranks N   world's proof record in the registry directory
         -rank R            (proving the world there on a miss), re-verify
                            locally, emit JSON
  verify <file>             statically verify a schedule artifact
  print  [-linkload [-fabric K]] <file>
                            stats and per-round message matrices; -linkload
                            folds each round onto the fabric's links
                            (the flow-level contention model's routes)
  diff   <a> <b>            compare two schedules round by round
`)
}

func runList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	root := fs.String("root", "", "list the worlds of this registry directory instead of the generators")
	fs.Parse(args)
	if *root != "" {
		reg, err := schedreg.Open(*root)
		if err != nil {
			return err
		}
		entries, err := reg.List()
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			fmt.Printf("registry %s is empty\n", reg.Root())
			return nil
		}
		fmt.Printf("%-12s %-16s %-9s %9s %12s\n", "generator", "world", "state", "programs", "bytes")
		for _, e := range entries {
			state := "verified"
			if e.Rejected {
				state = "rejected"
			}
			fmt.Printf("%-12s %-16s %-9s %9d %12d\n", e.Gen, e.World, state, e.Programs, e.Bytes)
		}
		return nil
	}
	for _, g := range sched.AllGenerators() {
		coll, _ := sched.GeneratorColl(g)
		fmt.Printf("%-16s %s\n", g, coll)
	}
	return nil
}

// runFetch resolves one rank's program through a registry directory
// opened in-process (-root) and runs VerifyRank on it before emitting:
// the emitted file is an artifact that may travel, so it carries its own
// local check. This is the CI smoke path: fetch cold, verify, fetch warm.
func runFetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	var (
		name  = fs.String("name", "ring", "generator name (see a2asched list)")
		ranks = fs.Int("ranks", 0, "world size in ranks (or use -nodes and -ppn)")
		nodes = fs.Int("nodes", 0, "node count (with -ppn: shapes topology-aware generators)")
		ppn   = fs.Int("ppn", 0, "ranks per node")
		rank  = fs.Int("rank", 0, "the rank whose program to fetch")
		root  = fs.String("root", "", "registry directory to resolve from (required; created if absent)")
		out   = fs.String("o", "", "write the rank program JSON to this path (default stdout)")
	)
	fs.Parse(args)
	if *root == "" {
		return errors.New("fetch needs -root")
	}
	p, m, err := parseWorld(*ranks, *nodes, *ppn)
	if err != nil {
		return err
	}
	reg, err := schedreg.Open(*root)
	if err != nil {
		return err
	}
	rp, err := reg.GetOrCompile(schedreg.KeyFor(*name, p, m, *rank))
	if err != nil {
		return err
	}
	if err := sched.VerifyRank(rp); err != nil {
		return fmt.Errorf("fetched program fails verification: %w", err)
	}
	if *out == "" {
		return rp.Encode(os.Stdout)
	}
	if err := rp.Save(*out); err != nil {
		return err
	}
	st := rp.Stats()
	fmt.Printf("fetched %s: rank %d of %q at %d ranks — %d rounds, %d sends, %d wire blocks (verified)\n",
		*out, rp.Rank, rp.Name, rp.Ranks, st.Rounds, st.Messages, st.WireBlocks)
	return nil
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		name  = fs.String("name", "ring", "generator name (see a2asched list)")
		ranks = fs.Int("ranks", 0, "world size in ranks (or use -nodes and -ppn)")
		nodes = fs.Int("nodes", 0, "node count (with -ppn: shapes topology-aware generators)")
		ppn   = fs.Int("ppn", 0, "ranks per node")
		out   = fs.String("o", "", "write the schedule JSON to this path (default stdout)")
	)
	fs.Parse(args)
	p, m, err := parseWorld(*ranks, *nodes, *ppn)
	if err != nil {
		return err
	}
	s, err := sched.Generate(*name, p, m)
	if err != nil {
		return err
	}
	if err := sched.Verify(s); err != nil {
		return fmt.Errorf("generated schedule fails verification (a generator bug): %w", err)
	}
	if *out == "" {
		return s.Encode(os.Stdout)
	}
	if err := s.Save(*out); err != nil {
		return err
	}
	st := s.Stats()
	fmt.Printf("wrote %s: %q for %d ranks, %d rounds, %d messages, %d wire blocks (verified)\n",
		*out, s.Name, s.Ranks, st.Rounds, st.Messages, st.WireBlocks)
	return nil
}

// parseWorld resolves the -ranks / -nodes / -ppn flag combination shared
// by gen and slice into a rank count and optional topology.
func parseWorld(ranks, nodes, ppn int) (int, *topo.Mapping, error) {
	var m *topo.Mapping
	p := ranks
	if nodes > 0 || ppn > 0 {
		if nodes <= 0 || ppn <= 0 {
			return 0, nil, errors.New("-nodes and -ppn must be given together")
		}
		var err error
		// The generator only consumes the nodes x ppn grid; a flat
		// one-core-per-rank node shape carries it.
		m, err = topo.NewMapping(topo.Spec{Sockets: 1, NumaPerSocket: 1, CoresPerNuma: ppn}, nodes, ppn)
		if err != nil {
			return 0, nil, err
		}
		if p != 0 && p != m.Size() {
			return 0, nil, fmt.Errorf("-ranks %d contradicts -nodes %d x -ppn %d", p, nodes, ppn)
		}
		p = m.Size()
	}
	if p <= 0 {
		return 0, nil, errors.New("need -ranks (or -nodes and -ppn)")
	}
	return p, m, nil
}

func runSlice(args []string) error {
	fs := flag.NewFlagSet("slice", flag.ExitOnError)
	var (
		name  = fs.String("name", "ring", "generator name (see a2asched list)")
		ranks = fs.Int("ranks", 0, "world size in ranks (or use -nodes and -ppn)")
		nodes = fs.Int("nodes", 0, "node count (with -ppn: shapes topology-aware generators)")
		ppn   = fs.Int("ppn", 0, "ranks per node")
		rank  = fs.Int("rank", 0, "the rank whose program to compile")
		world = fs.Bool("world", false, "also prove the whole world: every rank's rounds walked in step, one round of the world at a time")
		out   = fs.String("o", "", "write the rank program JSON to this path (default stdout)")
	)
	fs.Parse(args)
	p, m, err := parseWorld(*ranks, *nodes, *ppn)
	if err != nil {
		return err
	}
	rp, err := sched.GenerateRank(*name, p, *rank, m)
	if err != nil {
		return err
	}
	if err := sched.VerifyRank(rp); err != nil {
		return fmt.Errorf("generated slice fails local verification (a generator bug): %w", err)
	}
	if *world {
		if _, err := sched.Prove(*name, p, m); err != nil {
			return fmt.Errorf("world proof FAILED: %w", err)
		}
		fmt.Fprintf(os.Stderr, "world OK — %q at %d ranks: every message matched in its round, every rank's recv space holds exactly its blocks\n", rp.Name, p)
	}
	if *out == "" {
		return rp.Encode(os.Stdout)
	}
	if err := rp.Save(*out); err != nil {
		return err
	}
	st := rp.Stats()
	fmt.Printf("wrote %s: rank %d of %q at %d ranks — %d rounds, %d sends, %d wire blocks, %d repack copies (locally verified)\n",
		*out, rp.Rank, rp.Name, rp.Ranks, st.Rounds, st.Messages, st.WireBlocks, st.Copies)
	return nil
}

func oneFile(cmd string, args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("usage: a2asched %s <file>", cmd)
	}
	return args[0], nil
}

func runVerify(args []string) error {
	path, err := oneFile("verify", args)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, serr := sched.Decode(bytes.NewReader(data))
	if serr != nil {
		// Not a whole-world schedule; rank-program artifacts (slice -o,
		// fetch -o) get the local single-rank check instead. A file that
		// is neither reports both decoders' reasons: which one applies
		// depends on what the file was meant to be.
		rp, rerr := sched.DecodeRank(bytes.NewReader(data))
		if rerr != nil {
			return fmt.Errorf("%s: not a valid schedule (%w) or rank program (%w)", path, serr, rerr)
		}
		if err := sched.VerifyRank(rp); err != nil {
			return fmt.Errorf("%s: FAIL: %w", path, err)
		}
		st := rp.Stats()
		fmt.Printf("%s: OK — rank %d of %q at %d ranks passes local verification (%d rounds, %d sends, %d wire blocks)\n",
			path, rp.Rank, rp.Name, rp.Ranks, st.Rounds, st.Messages, st.WireBlocks)
		return nil
	}
	if err := sched.Verify(s); err != nil {
		return fmt.Errorf("%s: FAIL: %w", path, err)
	}
	st := s.Stats()
	fmt.Printf("%s: OK — %s %q verifies exactly-once dataflow over %d rounds (%d messages, %d wire blocks, %d repack copies)\n",
		path, s.Collective(), s.Name, st.Rounds, st.Messages, st.WireBlocks, st.Copies)
	return nil
}

// inferFabric maps a schedule's generator name to the fabric kind its
// routes were compiled for (the sched:* family names its topology). The
// reduction generators prefix the topology with the collective
// ("rs-ring", "ar-torus3x5"), so the prefix is stripped first.
func inferFabric(name string) (string, error) {
	topoName := strings.TrimPrefix(strings.TrimPrefix(name, "rs-"), "ar-")
	switch {
	case topoName == "ring":
		return "ring", nil
	case strings.HasPrefix(topoName, "torus"):
		return "torus", nil
	case topoName == "hypercube":
		return "hypercube", nil
	}
	return "", fmt.Errorf("cannot infer a fabric from schedule %q; pass -fabric (one of %v)", name, topo.FabricKinds())
}

func runPrint(args []string) error {
	fs := flag.NewFlagSet("print", flag.ExitOnError)
	var (
		linkload = fs.Bool("linkload", false, "also fold each round onto the fabric's links (static contention pressure)")
		fabric   = fs.String("fabric", "", "fabric kind for -linkload (default: inferred from the schedule name)")
	)
	fs.Parse(args)
	path, err := oneFile("print", fs.Args())
	if err != nil {
		return err
	}
	s, err := sched.Load(path)
	if err != nil {
		return err
	}
	// print renders broken schedules too (that is what inspection is
	// for), but says so up front.
	if err := sched.Verify(s); err != nil {
		fmt.Printf("note: schedule fails verification: %v\n", err)
	}
	if *linkload {
		kind := *fabric
		if kind == "" {
			if kind, err = inferFabric(s.Name); err != nil {
				return err
			}
		}
		// A schedule artifact carries no node mapping, so each rank is its
		// own fabric node — the shape the sched:* generators route for.
		f, err := topo.NewFabric(kind, s.Ranks)
		if err != nil {
			return err
		}
		loads, err := sched.LinkLoads(s, f, nil)
		if err != nil {
			return err
		}
		fmt.Print(sched.FormatLinkLoads(f, loads))
	}
	fmt.Print(sched.Format(s))
	return nil
}

func runDiff(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: a2asched diff <a> <b>")
	}
	a, err := sched.Load(args[0])
	if err != nil {
		return err
	}
	b, err := sched.Load(args[1])
	if err != nil {
		return err
	}
	diffs := 0
	report := func(format string, argv ...any) {
		if diffs < 20 {
			fmt.Printf(format+"\n", argv...)
		}
		diffs++
	}
	if a.Name != b.Name {
		report("name: %q vs %q", a.Name, b.Name)
	}
	if a.Ranks != b.Ranks {
		report("ranks: %d vs %d", a.Ranks, b.Ranks)
	}
	ra, rb := len(a.Rounds), len(b.Rounds)
	if ra != rb {
		report("rounds: %d vs %d", ra, rb)
	}
	if a.Ranks == b.Ranks {
		n := ra
		if rb < n {
			n = rb
		}
		for ri := 0; ri < n; ri++ {
			ma, mb := a.RoundMatrix(ri), b.RoundMatrix(ri)
			for s := 0; s < a.Ranks; s++ {
				for d := 0; d < a.Ranks; d++ {
					if ma[s][d] != mb[s][d] {
						report("round %d: %d->%d sends %d vs %d blocks", ri, s, d, ma[s][d], mb[s][d])
					}
				}
			}
		}
	}
	sa, sb := a.Stats(), b.Stats()
	fmt.Printf("totals: %d vs %d messages, %d vs %d wire blocks, %d vs %d copies\n",
		sa.Messages, sb.Messages, sa.WireBlocks, sb.WireBlocks, sa.Copies, sb.Copies)
	if diffs == 0 {
		fmt.Println("schedules are equivalent (same per-round message matrices)")
		return nil
	}
	if diffs > 20 {
		fmt.Printf("... and %d more differences\n", diffs-20)
	}
	return fmt.Errorf("schedules differ (%d differences)", diffs)
}
