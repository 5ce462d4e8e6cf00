// Command a2aschedd is the schedule-service daemon: an HTTP front-end
// over a disk-backed registry of world proofs (internal/schedreg). Jobs
// point core at it (a2asim/alltoallbench -schedd, or core.SetSchedFetcher
// in embedding code) and every (generator, world) in the fleet is proved
// exactly once; each job then compiles its own ranks and matches them
// against the world's record, fetched once per world.
//
// Endpoints:
//
//	GET  /healthz                              liveness probe
//	GET  /v1/stats                             registry counters + admission state
//	GET  /v1/proof?gen=&ranks=[&nodes=&ppn=]   the world's PROOF record
//
// Cold proofs are admission-controlled (-maxcompile slots); a saturated
// daemon answers 503 + Retry-After and clients fall back to local
// compilation. Records already on disk never queue.
//
// Usage:
//
//	a2aschedd -root /var/lib/a2asched [-addr 127.0.0.1:7643] [-maxcompile 4]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"alltoallx/internal/schedreg"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7643", "listen address")
		root       = flag.String("root", "", "registry directory (required; created if absent)")
		maxCompile = flag.Int("maxcompile", 4, "concurrent cold world proofs admitted before answering 503")
	)
	flag.Parse()
	if *root == "" {
		fmt.Fprintln(os.Stderr, "a2aschedd: -root is required")
		flag.Usage()
		os.Exit(2)
	}

	log.SetPrefix("a2aschedd: ")
	log.SetFlags(log.LstdFlags)

	reg, err := schedreg.Open(*root)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: schedreg.NewServer(reg, *maxCompile),
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving registry %s on %s (%d compile slots)", reg.Root(), ln.Addr(), *maxCompile)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatal(err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		st := reg.Stats()
		log.Printf("done: %d hits, %d misses, %d negative hits, %d compiles",
			st.Hits, st.Misses, st.NegativeHits, st.Compiles)
	}
}
