package netnode

// Tests for the incremental digest sync path: single-flight fetches
// under a miss herd, delta transfers over the wire, serve-stale on the
// miss path, and freshness measured on the injected clock.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eacache/internal/core"
	"eacache/internal/digest"
	"eacache/internal/metrics"
	"eacache/internal/resolve"
)

// fakeClock is an injectable Config.Now that only moves when advanced.
type fakeClock struct {
	base   time.Time
	offset atomic.Int64 // nanoseconds
}

func newFakeClock() *fakeClock { return &fakeClock{base: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time          { return c.base.Add(time.Duration(c.offset.Load())) }
func (c *fakeClock) Advance(d time.Duration) { c.offset.Add(int64(d)) }

// startDigestNodeWith builds a digest-locating node with explicit clock
// and refresh/window knobs.
func startDigestNodeWith(t *testing.T, id, origin string, refresh time.Duration, now func() time.Time, window int) *Node {
	t.Helper()
	n, err := New(Config{
		ID:                id,
		ICPAddr:           "127.0.0.1:0",
		HTTPAddr:          "127.0.0.1:0",
		Store:             newStore(t, 1<<20),
		Scheme:            core.EA{},
		OriginAddr:        origin,
		Location:          resolve.LocateDigest,
		Digest:            digest.Config{Expected: 64, FPRate: 0.01},
		DigestRefresh:     refresh,
		DigestDeltaWindow: window,
		Now:               now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// A 32-way herd of concurrent misses on distinct URLs (distinct so the
// request coalescer cannot mask duplicates) must share one single-flight
// digest fetch: the peer serves exactly one full transfer and the
// requester dials exactly once.
func TestDigestMissHerdSharesOneFetch(t *testing.T) {
	origin := startOrigin(t)
	// Hour-long refresh: no background revalidation can race the herd.
	a := startDigestNodeWith(t, "a", origin.Addr(), time.Hour, nil, 0)
	b := startDigestNodeWith(t, "b", origin.Addr(), time.Hour, nil, 0)
	mesh(a, b)

	const herd = 32
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Request(fmt.Sprintf("http://w/h%d", i), 400); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := b.DigestStats().Fetches; got != 1 {
		t.Fatalf("digest fetches = %d, want 1 (single flight)", got)
	}
	as := a.DigestStats()
	if as.FullsServed != 1 || as.DeltasServed != 0 {
		t.Fatalf("peer served fulls=%d deltas=%d, want exactly one full", as.FullsServed, as.DeltasServed)
	}
}

// Digest freshness must be measured on the injected Config.Now clock:
// with the fake clock frozen, real elapsed time never triggers a
// refresh; advancing the fake clock does — and the revalidation arrives
// as a compact delta applied to the replica, off the request path.
func TestDigestRefreshUsesInjectedClockAndDeltas(t *testing.T) {
	origin := startOrigin(t)
	clk := newFakeClock()
	a := startDigestNodeWith(t, "a", origin.Addr(), 50*time.Millisecond, clk.Now, 0)
	b := startDigestNodeWith(t, "b", origin.Addr(), 50*time.Millisecond, clk.Now, 0)
	mesh(a, b)

	// First contact: b fetches a's (empty) digest in full.
	if _, err := b.Request("http://w/seed", 400); err != nil {
		t.Fatal(err)
	}
	if got := b.DigestStats().Fetches; got != 1 {
		t.Fatalf("fetches after first contact = %d", got)
	}

	// a caches new content; its own generation advances incrementally.
	if _, err := a.Request("http://w/new", 400); err != nil {
		t.Fatal(err)
	}

	// Real time passes (several revalidator ticks) but the injected
	// clock is frozen, so the replica must still count as fresh.
	time.Sleep(150 * time.Millisecond)
	if got := b.DigestStats().Fetches; got != 1 {
		t.Fatalf("fetches with frozen clock = %d, want 1 (freshness must use Config.Now)", got)
	}

	// Advance the cache-visible clock past the refresh window: the
	// background loop revalidates, and — since b holds generation G —
	// the peer answers with a delta, not a full filter.
	clk.Advance(time.Second)
	waitFor(t, 2*time.Second, "background delta refresh", func() bool {
		return b.DigestStats().DeltasApplied >= 1
	})
	if as := a.DigestStats(); as.DeltasServed < 1 {
		t.Fatalf("peer stats = %+v, want at least one delta served", as)
	}

	// The refreshed replica now advertises the new document.
	res, err := b.Request("http://w/new", 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Responder != a.HTTPAddr() {
		t.Fatalf("res = %+v, want remote hit via delta-synced digest", res)
	}
}

// A miss that consults a stale replica must be answered from the stale
// copy immediately — never block on the wire — while one background
// flight revalidates.
func TestDigestServeStaleKeepsMissOffTheWire(t *testing.T) {
	origin := startOrigin(t)
	clk := newFakeClock()
	// Hour-long refresh: the background loop (period refresh/2) never
	// ticks during the test, so the *only* way the replica can be
	// refreshed is the flight kicked by the serve-stale path.
	a := startDigestNodeWith(t, "a", origin.Addr(), time.Hour, clk.Now, 0)
	b := startDigestNodeWith(t, "b", origin.Addr(), time.Hour, clk.Now, 0)
	mesh(a, b)

	if _, err := b.Request("http://w/prime", 400); err != nil {
		t.Fatal(err)
	}
	if got := b.DigestStats().Fetches; got != 1 {
		t.Fatalf("fetches after prime = %d", got)
	}

	// Cross the trust window on the cache-visible clock.
	clk.Advance(2 * time.Hour)

	res, err := b.Request("http://w/after-stale", 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss {
		t.Fatalf("res = %+v, want plain miss", res)
	}
	if got := b.DigestStats().StaleServed; got < 1 {
		t.Fatalf("stale served = %d, want >= 1", got)
	}
	// The background flight lands without any further requests.
	waitFor(t, 2*time.Second, "background revalidation", func() bool {
		return b.DigestStats().Fetches >= 2
	})
}

// Steady state must perform zero full-scan rebuilds: drive churn through
// a small store (inserts and evictions) and assert the escape hatch was
// never taken while the advertised digest stayed live.
func TestDigestSteadyStateNeverRebuilds(t *testing.T) {
	origin := startOrigin(t)
	a := startDigestNodeWith(t, "a", origin.Addr(), time.Hour, nil, 0)

	for i := 0; i < 200; i++ {
		if _, err := a.Request(fmt.Sprintf("http://w/churn%d", i), 400); err != nil {
			t.Fatal(err)
		}
	}
	rep := a.DigestReport()
	if !rep.Enabled {
		t.Fatal("digest report disabled on a digest node")
	}
	if got := a.DigestStats().RebuildEscapes; got != 0 {
		t.Fatalf("rebuild escapes = %d, want 0 in steady state", got)
	}
	if rep.OwnGeneration < 200 {
		t.Fatalf("own generation = %d, want one advance per mutation", rep.OwnGeneration)
	}
}

func TestDigestDeltaWindowValidation(t *testing.T) {
	base := func() Config {
		return Config{
			ID:         "w",
			ICPAddr:    "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
			Store:      newStore(t, 1<<20),
			Scheme:     core.EA{},
			OriginAddr: "127.0.0.1:1",
		}
	}

	cfg := base()
	cfg.Location = resolve.LocateDigest
	cfg.DigestDeltaWindow = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative delta window accepted")
	}

	cfg = base()
	cfg.DigestDeltaWindow = 8 // without LocateDigest
	if _, err := New(cfg); err == nil {
		t.Fatal("delta window without digest location accepted")
	}

	cfg = base()
	cfg.Location = resolve.LocateDigest
	cfg.DigestDeltaWindow = 8
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.DigestReport().Window; got != 8 {
		t.Fatalf("window = %d, want 8", got)
	}
}
