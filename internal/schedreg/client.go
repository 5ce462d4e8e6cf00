package schedreg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"alltoallx/internal/sched"
	"alltoallx/internal/singleflight"
	"alltoallx/internal/topo"
)

// Client talks to a running a2aschedd. Error discipline mirrors the
// fallback order consumers implement: an error wrapping ErrRejected is
// a definitive negative verdict worth caching; an error wrapping
// ErrUnavailable (daemon down, saturated, answering garbage, or holding
// a proof this build's program does not match) means fall back to local
// compilation and try again later.
type Client struct {
	base   string
	hc     *http.Client
	fl     singleflight.Group
	proofs sync.Map // genWorld -> *proof: every world's record, fetched once
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7643"). The scheme defaults to http:// when
// absent.
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

// Fetch resolves gen's program for rank in a p-rank world mapped by m
// (nil for flat): it compiles the program locally and returns it only if
// its digest equals the rank's entry in the world's proof record, which
// the daemon sends once per world per Client. A returned program is
// byte-identical to a slice the daemon's world proof verified, so
// callers run it without re-verifying; a mismatch is ErrUnavailable.
func (c *Client) Fetch(gen string, p int, m *topo.Mapping, rank int) (*sched.RankProgram, error) {
	k := KeyFor(gen, p, m, rank)
	if err := k.validate(); err != nil {
		return nil, err
	}
	pf, err := c.proof(k)
	if err != nil {
		return nil, err
	}
	rp, err := pf.resolve(k)
	if err == nil && rp == nil {
		err = errors.New("program does not match the daemon's world proof")
	}
	if err != nil {
		return nil, fmt.Errorf("schedreg: %s: %w: %w", k, ErrUnavailable, err)
	}
	return rp, nil
}

// proof returns k's world record, fetching it from the daemon on the
// first request for the world; concurrent first requests share one
// fetch.
func (c *Client) proof(k Key) (*proof, error) {
	w := k.genWorld()
	v, err, _ := c.fl.Do(w, func() (any, error) {
		if pf, ok := c.proofs.Load(w); ok {
			return pf, nil
		}
		q := url.Values{"gen": {k.Gen}, "ranks": {fmt.Sprint(k.Ranks)}}
		if k.Nodes > 0 {
			q.Set("nodes", fmt.Sprint(k.Nodes))
			q.Set("ppn", fmt.Sprint(k.PPN))
		}
		b, err := c.get(w, "/v1/proof?"+q.Encode())
		if err != nil {
			return nil, err
		}
		pf, err := decodeProof(k, b)
		if err != nil {
			return nil, fmt.Errorf("%w: daemon sent a bad record: %w", ErrUnavailable, err)
		}
		c.proofs.Store(w, pf)
		return pf, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*proof), nil
}

// Stats fetches the daemon's registry counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	b, err := c.get("stats", "/v1/stats")
	if err == nil {
		if err = json.Unmarshal(b, &st); err != nil {
			err = fmt.Errorf("schedreg: stats: %w: %w", ErrUnavailable, err)
		}
	}
	return st, err
}

// get returns the body of a 200 answer to GET path. A 422 is a
// rejection; a transport failure or any other status is ErrUnavailable.
// what names the request in errors.
func (c *Client) get(what, path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, fmt.Errorf("schedreg: %s: %w: %w", what, ErrUnavailable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("schedreg: %s: %w: %w", what, ErrUnavailable, err)
		}
		return b, nil
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(b))
	if resp.StatusCode == http.StatusUnprocessableEntity {
		return nil, fmt.Errorf("schedreg: %s: %w: %s", what, ErrRejected, msg)
	}
	return nil, fmt.Errorf("schedreg: %s: %w: daemon answered %s: %s", what, ErrUnavailable, resp.Status, msg)
}
