package schedreg

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"alltoallx/internal/artifact"
	"alltoallx/internal/sched"
	"alltoallx/internal/singleflight"
)

// Test seams: the world proof, the rank compiler and the record writer,
// swappable so tests can count the first two's runs and prove the
// prove-once guarantee (a second process resolving against a stored
// record reaches only generateRank, once per rank), and fail a write.
var (
	prove        = sched.Prove
	generateRank = sched.GenerateRank
	saveArtifact = artifact.Save
)

// Stats are the registry's lifetime counters (per Registry instance,
// not per root — a fresh process starts from zero even over a warm
// root).
type Stats struct {
	// Hits counts lookups answered by a stored proof record: a rank
	// program that matched its digest.
	Hits int64 `json:"hits"`
	// Misses counts lookups that found no record, or a record the rank's
	// program did not match, and went to the proof path.
	Misses int64 `json:"misses"`
	// NegativeHits counts lookups answered by a REJECTED marker.
	NegativeHits int64 `json:"negative_hits"`
	// Compiles counts world proofs: the work the registry exists to
	// perform once.
	Compiles int64 `json:"compiles"`
}

// Registry is a disk-backed store of world proofs. It keeps no programs:
// a rank resolves by compiling its own slice and matching the digest
// its world's PROOF record holds for it. It is safe for concurrent use;
// concurrent use of several Registry instances (or processes) over the
// same root is safe too — every write is atomic and deterministic —
// though the prove-once guarantee is then per instance, not global.
type Registry struct {
	root string
	fl   singleflight.Group

	hits, misses, negHits, compiles atomic.Int64
}

// Open creates (if needed) and opens a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, "keys"), 0o755); err != nil {
		return nil, fmt.Errorf("schedreg: opening registry at %s: %w", dir, err)
	}
	return &Registry{root: dir}, nil
}

// Root returns the registry's root directory.
func (r *Registry) Root() string { return r.root }

// Stats returns a snapshot of the lifetime counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Hits:         r.hits.Load(),
		Misses:       r.misses.Load(),
		NegativeHits: r.negHits.Load(),
		Compiles:     r.compiles.Load(),
	}
}

func (r *Registry) worldDir(k Key) string {
	return filepath.Join(r.root, "keys", k.Gen, k.World())
}
func (r *Registry) proofPath(k Key) string    { return filepath.Join(r.worldDir(k), "PROOF") }
func (r *Registry) rejectedPath(k Key) string { return filepath.Join(r.worldDir(k), "REJECTED") }

// proof is the content of a PROOF record: the world it proves and the
// hex Digest of every rank's proved program, indexed by rank.
type proof struct {
	Gen     string   `json:"gen"`
	World   string   `json:"world"`
	Digests []string `json:"digests"`
}

// decodeProof parses a PROOF record and checks that it is whole and
// names k's world; every error names the generator and the world.
func decodeProof(k Key, b []byte) (*proof, error) {
	var pf proof
	if err := json.Unmarshal(b, &pf); err != nil {
		return nil, fmt.Errorf("schedreg: %s: undecodable PROOF record: %w", k.genWorld(), err)
	}
	if pf.Gen != k.Gen || pf.World != k.World() {
		return nil, fmt.Errorf("schedreg: %s: PROOF record is for %s@%s", k.genWorld(), pf.Gen, pf.World)
	}
	if len(pf.Digests) != k.Ranks {
		return nil, fmt.Errorf("schedreg: %s: PROOF record holds %d digests for %d ranks", k.genWorld(), len(pf.Digests), k.Ranks)
	}
	for rank, d := range pf.Digests {
		if _, err := hex.DecodeString(d); err != nil || len(d) != 2*sha256.Size {
			return nil, fmt.Errorf("schedreg: %s: PROOF record entry for rank %d is not a hex SHA-256: %q", k.genWorld(), rank, d)
		}
	}
	return &pf, nil
}

// resolve compiles k's rank program (O(slice)) and returns it if its
// digest is pf's entry for the rank, or nil if it is not.
func (pf *proof) resolve(k Key) (*sched.RankProgram, error) {
	m, err := k.Mapping()
	if err != nil {
		return nil, err
	}
	rp, err := generateRank(k.Gen, k.Ranks, k.Rank, m)
	if err != nil {
		return nil, fmt.Errorf("schedreg: %s: compiling a rank of a proved world: %w", k, err)
	}
	if d := rp.Digest(); hex.EncodeToString(d[:]) != pf.Digests[k.Rank] {
		return nil, nil
	}
	return rp, nil
}

// rejection is the content of a REJECTED marker.
type rejection struct {
	Error string `json:"error"`
}

// rejErr renders the uniform negative verdict, identical whether the
// rejection was just produced or read back from the marker.
func rejErr(k Key, cause string) error {
	return fmt.Errorf("schedreg: %s: %w: %s", k.genWorld(), ErrRejected, cause)
}

// Lookup resolves k against its world's stored proof, never proving:
// it compiles the rank's program and serves it only if its digest
// equals the record's entry for the rank — so a served program is
// byte-identical to a slice the world proof verified, and needs no
// VerifyRank. ok reports whether the registry had a verdict (a program,
// a rejection, or an unreadable record); !ok — no record, or a record
// the program does not match — means the caller may prove the world.
func (r *Registry) Lookup(k Key) (*sched.RankProgram, error, bool) {
	if err := k.validate(); err != nil {
		return nil, err, true
	}
	rp, _, err := r.lookup(k)
	r.count(rp != nil, err)
	return rp, err, rp != nil || err != nil
}

// count records one lookup's verdict in the counters.
func (r *Registry) count(hit bool, err error) {
	if hit {
		r.hits.Add(1)
	} else if errors.Is(err, ErrRejected) {
		r.negHits.Add(1)
	}
}

// lookup is Lookup without validation or counting. A nil program with a
// nil error is a miss; pf is then the record the program did not match,
// or nil when the world has none.
func (r *Registry) lookup(k Key) (rp *sched.RankProgram, pf *proof, err error) {
	pf, err, ok := r.record(k)
	if ok && err == nil {
		rp, err = pf.resolve(k)
	}
	return rp, pf, err
}

// record reads k's world verdict from disk: the REJECTED marker, else
// the decoded PROOF record. ok is false when the world has neither.
func (r *Registry) record(k Key) (*proof, error, bool) {
	if b, err := os.ReadFile(r.rejectedPath(k)); err == nil {
		var rej rejection
		if jerr := json.Unmarshal(b, &rej); jerr != nil {
			return nil, fmt.Errorf("schedreg: %s: corrupt REJECTED marker: %w", k.genWorld(), jerr), true
		}
		return nil, rejErr(k, rej.Error), true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("schedreg: %s: reading REJECTED marker: %w", k.genWorld(), err), true
	}
	b, err := os.ReadFile(r.proofPath(k))
	if os.IsNotExist(err) {
		return nil, nil, false
	}
	if err != nil {
		return nil, fmt.Errorf("schedreg: %s: reading PROOF record: %w", k.genWorld(), err), true
	}
	pf, err := decodeProof(k, b)
	return pf, err, true
}

// GetOrCompile serves k, proving its world on a miss. Concurrent
// callers for one world coalesce into one proof; a generator rejection
// is persisted as a REJECTED marker so no process ever re-runs a
// generator against a world it cannot handle. A program that does not
// match the record its world's proof just wrote is an error naming the
// rank, never a run of an unproven program.
func (r *Registry) GetOrCompile(k Key) (*sched.RankProgram, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	rp, stale, err := r.lookup(k)
	r.count(rp != nil, err)
	if rp != nil || err != nil {
		return rp, err
	}
	r.misses.Add(1)
	if err := r.proveOnce(k, stale != nil); err != nil {
		return nil, err
	}
	if rp, _, err = r.lookup(k); rp == nil && err == nil {
		return nil, fmt.Errorf("schedreg: %s: program differs from the slice its world proof just recorded (GenerateRank and the proved schedule disagree)", k)
	}
	return rp, err
}

// proveOnce proves k's world, coalescing concurrent callers into one
// proof. A caller that found no record proves nothing if another flight
// recorded a verdict since; one whose record was stale always re-proves.
func (r *Registry) proveOnce(k Key, stale bool) error {
	_, err, _ := r.fl.Do(r.worldDir(k), func() (any, error) {
		if _, _, ok := r.record(k); ok && !stale {
			return nil, nil
		}
		return nil, r.prove(k)
	})
	return err
}

// prove runs k's world proof, sched.Prove (the world driver at or below
// sched.FullProofRanks, the streamed driver above), and records the
// verdict: every rank's digest in PROOF, or the generator's or
// verifier's refusal in REJECTED.
func (r *Registry) prove(k Key) error {
	m, err := k.Mapping()
	if err != nil {
		return err
	}
	r.compiles.Add(1)
	digests, err := prove(k.Gen, k.Ranks, m)
	if err != nil {
		return r.reject(k, err)
	}
	pf := proof{Gen: k.Gen, World: k.World(), Digests: make([]string, len(digests))}
	for rank, d := range digests {
		pf.Digests[rank] = hex.EncodeToString(d[:])
	}
	return r.save(k, "PROOF record", r.proofPath(k), pf)
}

// reject persists the negative verdict and returns it in the uniform
// rejection form. The marker is what makes the negative cache
// cross-process: a restarted registry answers from it without touching
// the generator.
func (r *Registry) reject(k Key, cause error) error {
	if err := r.save(k, "REJECTED marker", r.rejectedPath(k), rejection{Error: cause.Error()}); err != nil {
		return err
	}
	return rejErr(k, cause.Error())
}

// save writes v as one JSON line to file, in k's world directory.
func (r *Registry) save(k Key, what, file string, v any) error {
	if err := os.MkdirAll(r.worldDir(k), 0o755); err != nil {
		return fmt.Errorf("schedreg: %s: creating world dir: %w", k.genWorld(), err)
	}
	return saveArtifact(file, fmt.Sprintf("schedreg: %s: saving %s", k.genWorld(), what), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(v)
	})
}

// Entry summarizes one (generator, world) directory for List.
type Entry struct {
	Gen      string `json:"gen"`
	World    string `json:"world"`
	Verified bool   `json:"verified"`
	Rejected bool   `json:"rejected"`
	// Programs counts the ranks the world's PROOF record proves.
	Programs int `json:"programs"`
	// Bytes is the record's size on disk: the world's whole footprint.
	Bytes int64 `json:"bytes"`
}

// List summarizes every (generator, world) directory of the registry
// that holds a PROOF record or a REJECTED marker, sorted by generator
// then world. Directories holding neither (a registry layout this build
// does not read) are skipped.
func (r *Registry) List() ([]Entry, error) {
	keys := filepath.Join(r.root, "keys")
	worlds, err := fs.Glob(os.DirFS(keys), "*/*")
	if err != nil {
		return nil, fmt.Errorf("schedreg: listing registry at %s: %w", r.root, err)
	}
	var out []Entry
	for _, gw := range worlds {
		e := Entry{Gen: path.Dir(gw), World: path.Base(gw)}
		dir := filepath.Join(keys, gw)
		if b, err := os.ReadFile(filepath.Join(dir, "PROOF")); err == nil {
			var pf proof
			e.Verified = json.Unmarshal(b, &pf) == nil
			e.Programs, e.Bytes = len(pf.Digests), int64(len(b))
		}
		_, err := os.Stat(filepath.Join(dir, "REJECTED"))
		if e.Rejected = err == nil; e.Verified || e.Rejected {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		return cmp.Or(strings.Compare(a.Gen, b.Gen), strings.Compare(a.World, b.World))
	})
	return out, nil
}
