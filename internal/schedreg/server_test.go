package schedreg

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"alltoallx/internal/sched"
	"alltoallx/internal/topo"
)

func newTestDaemon(t *testing.T, maxCompile int) (*Registry, *Client) {
	t.Helper()
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, maxCompile))
	t.Cleanup(srv.Close)
	return reg, NewClient(srv.URL)
}

// TestServerFetchRoundTrip: the client's program is byte-identical to
// direct generation; one client fetches a world's record once however
// many of its ranks it resolves, and a second client's fetch is a
// daemon hit.
func TestServerFetchRoundTrip(t *testing.T) {
	c := countSeams(t)
	reg, cl := newTestDaemon(t, 2)
	m := mustMapping(t, 3, 4)

	rp, err := cl.Fetch("torus", 12, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GenerateRank("torus", 12, 5, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRP(t, rp), encodeRP(t, want)) {
		t.Fatal("fetched program differs from direct generation")
	}
	if err := sched.VerifyRank(rp); err != nil {
		t.Fatalf("fetched program fails verification: %v", err)
	}
	for rank := 0; rank < 12; rank++ {
		if _, err := cl.Fetch("torus", 12, m, rank); err != nil {
			t.Fatal(err)
		}
	}
	if st := reg.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the record fetched once (1 miss, no hits)", st)
	}
	if _, err := NewClient(cl.base).Fetch("torus", 12, m, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.generates.Load(); got != 1 {
		t.Fatalf("generator ran %d times, want 1", got)
	}
	if st := reg.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss", st)
	}
}

// TestClientStaleRecord: a daemon record whose entry for a rank does not
// match the program compiled here is unavailable, never run: Fetch wraps
// ErrUnavailable, and ClientFetcher answers (nil, nil) so the caller
// compiles and verifies locally. The other ranks still resolve.
func TestClientStaleRecord(t *testing.T) {
	reg, cl := newTestDaemon(t, 1)
	k := KeyFor("ring", 8, nil, 2)
	if _, err := reg.GetOrCompile(k); err != nil {
		t.Fatal(err)
	}
	editRecord(t, reg.proofPath(k), func(pf *proof) { pf.Digests[2] = pf.Digests[1] })
	if _, err := cl.Fetch("ring", 8, nil, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("stale entry: want ErrUnavailable, got %v", err)
	}
	if rp, err := ClientFetcher(cl)("ring", 8, nil, 2); rp != nil || err != nil {
		t.Fatalf("stale entry: ClientFetcher = (%v, %v), want (nil, nil)", rp != nil, err)
	}
	if rp, err := ClientFetcher(cl)("ring", 8, nil, 3); rp == nil || err != nil {
		t.Fatalf("rank 3: ClientFetcher = (%v, %v), want its program", rp != nil, err)
	}
}

// TestServerRejection: a rejected world comes back as ErrRejected with
// key context — the definitive verdict clients negative-cache.
func TestServerRejection(t *testing.T) {
	_, cl := newTestDaemon(t, 2)
	_, err := cl.Fetch("hypercube", 6, nil, 0)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	for _, frag := range []string{"hypercube", "p6-flat"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("rejection %q does not mention %q", err, frag)
		}
	}
}

// TestServerStats: the stats endpoint reflects registry counters.
func TestServerStats(t *testing.T) {
	_, cl := newTestDaemon(t, 2)
	if _, err := cl.Fetch("ring", 8, nil, 1); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 compile", st)
	}
}

// TestServerAdmissionControl: with one compile slot held by a stuck
// compilation, a second cold request is refused with 503 (the client
// maps it to ErrUnavailable) instead of piling up; warm requests keep
// being served from disk.
func TestServerAdmissionControl(t *testing.T) {
	countSeams(t) // restores seams on cleanup
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Warm one world, then wedge the generator.
	if _, err := reg.GetOrCompile(KeyFor("ring", 8, nil, 1)); err != nil {
		t.Fatal(err)
	}
	enter, release := make(chan struct{}, 1), make(chan struct{})
	og := generate
	generate = func(name string, p int, m *topo.Mapping) (*sched.Schedule, error) {
		enter <- struct{}{}
		<-release
		return og(name, p, m)
	}
	srv := httptest.NewServer(NewServer(reg, 1))
	t.Cleanup(srv.Close)
	cl := NewClient(srv.URL)

	done := make(chan error, 1)
	go func() {
		_, err := cl.Fetch("pairwise", 8, nil, 0) // occupies the only slot
		done <- err
	}()
	<-enter

	if _, err := cl.Fetch("direct", 8, nil, 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("saturated daemon: want ErrUnavailable, got %v", err)
	}
	if _, err := cl.Fetch("ring", 8, nil, 1); err != nil {
		t.Fatalf("warm fetch refused under saturation: %v", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("wedged compile finished with %v", err)
	}
	generate = og // un-wedge so the next cold compile runs through
	if _, err := cl.Fetch("direct", 8, nil, 0); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

// TestServerBadRequests: malformed queries are 400s, unknown paths 404.
func TestServerBadRequests(t *testing.T) {
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, 1))
	t.Cleanup(srv.Close)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/proof?gen=ring", http.StatusBadRequest},                         // missing ranks
		{"/v1/proof?gen=ring&ranks=zoo", http.StatusBadRequest},               // non-integer
		{"/v1/proof?gen=..%2Fup&ranks=8", http.StatusBadRequest},              // path-unsafe gen
		{"/v1/proof?gen=ring&ranks=8&nodes=2", http.StatusBadRequest},         // nodes without ppn
		{"/v1/proof?gen=torus&ranks=12&nodes=2&ppn=4", http.StatusBadRequest}, // 2 x 4 is not 12 ranks
		{"/v1/program?gen=ring&ranks=8&rank=0", http.StatusNotFound},          // programs are not served
		{"/v1/nope", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s answered %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}
