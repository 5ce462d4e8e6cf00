package schedreg

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Server serves a Registry's world proofs over HTTP/JSON — the handler
// behind cmd/a2aschedd. Endpoints:
//
//	GET  /healthz                              liveness probe
//	GET  /v1/stats                             registry counters + admission state
//	GET  /v1/proof?gen=&ranks=[&nodes=&ppn=]   the world's PROOF record
//
// The daemon serves proofs, never programs: a client compiles its own
// rank's slice and matches it against the record (Client.Fetch).
// Records already on disk never queue; requests that would prove a world
// pass admission control first — a bounded in-flight-proof semaphore —
// and are refused with 503 + Retry-After when the daemon is saturated,
// so a thundering herd of cold worlds degrades into polite retries
// instead of a proof pile-up. Duplicate in-flight worlds coalesce inside
// the registry regardless.
type Server struct {
	reg *Registry
	sem chan struct{}
}

// NewServer wraps reg with admission control allowing at most
// maxCompile concurrent world proofs (minimum 1).
func NewServer(reg *Registry, maxCompile int) *Server {
	if maxCompile < 1 {
		maxCompile = 1
	}
	return &Server{reg: reg, sem: make(chan struct{}, maxCompile)}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch {
	case req.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case req.URL.Path == "/v1/stats" && req.Method == http.MethodGet:
		s.handleStats(w)
	case req.URL.Path == "/v1/proof" && req.Method == http.MethodGet:
		s.handleProof(w, req)
	default:
		http.Error(w, "schedreg: unknown endpoint", http.StatusNotFound)
	}
}

// serverStats is the /v1/stats payload.
type serverStats struct {
	Stats
	CompileSlots   int `json:"compile_slots"`
	CompilesActive int `json:"compiles_active"`
}

func (s *Server) handleStats(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, serverStats{
		Stats:          s.reg.Stats(),
		CompileSlots:   cap(s.sem),
		CompilesActive: len(s.sem),
	})
}

func (s *Server) handleProof(w http.ResponseWriter, req *http.Request) {
	k, err := keyFromQuery(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pf, err, ok := s.reg.record(k)
	s.reg.count(ok && err == nil, err)
	if !ok {
		select {
		case s.sem <- struct{}{}:
			s.reg.misses.Add(1)
			if err = s.reg.proveOnce(k, false); err == nil {
				if pf, err, ok = s.reg.record(k); !ok {
					err = fmt.Errorf("schedreg: %s: proved, but no record was found", k.genWorld())
				}
			}
			<-s.sem
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("schedreg: %s: all %d compile slots busy", k.genWorld(), cap(s.sem)), http.StatusServiceUnavailable)
			return
		}
	}
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	writeJSON(w, http.StatusOK, pf)
}

// statusFor maps registry errors to HTTP: a rejection is a definitive
// client-cacheable verdict (422), anything else is a server fault.
func statusFor(err error) int {
	if errors.Is(err, ErrRejected) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// keyFromQuery reads a world from the query; an absent parameter is
// zero, which validation refuses for ranks.
func keyFromQuery(req *http.Request) (Key, error) {
	q := req.URL.Query()
	k := Key{Gen: q.Get("gen")} // rank 0: a record covers every rank of its world
	for name, dst := range map[string]*int{"ranks": &k.Ranks, "nodes": &k.Nodes, "ppn": &k.PPN} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return Key{}, fmt.Errorf("schedreg: query parameter %s=%q is not an integer", name, v)
			}
			*dst = n
		}
	}
	return k, k.validate()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
