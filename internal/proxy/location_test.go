package proxy

import (
	"fmt"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/digest"
	"eacache/internal/metrics"
)

// newDigestProxy builds a proxy using Summary-Cache digests for location.
func newDigestProxy(t *testing.T, id string, capacity int64) *Proxy {
	t.Helper()
	store, err := cache.New(cache.Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID:       id,
		Store:    store,
		Scheme:   core.AdHoc{},
		Origin:   SizeHintOrigin{},
		Location: LocateDigest,
		Digest:   digest.Config{Expected: 64, FPRate: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newDigestProxyWithOrigin is newDigestProxy with a custom origin.
func newDigestProxyWithOrigin(t *testing.T, id string, capacity int64, origin Origin) *Proxy {
	t.Helper()
	store, err := cache.New(cache.Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		ID:       id,
		Store:    store,
		Scheme:   core.AdHoc{},
		Origin:   origin,
		Location: LocateDigest,
		Digest:   digest.Config{Expected: 64, FPRate: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLocationString(t *testing.T) {
	if LocateICP.String() != "icp" || LocateDigest.String() != "digest" {
		t.Fatal("location names wrong")
	}
	if Location(9).String() != "location(9)" {
		t.Fatal("unknown location string")
	}
}

func TestDigestRemoteHit(t *testing.T) {
	a := newDigestProxy(t, "a", 1<<20)
	b := newDigestProxy(t, "b", 1<<20)
	wire(t, a, b)

	if _, err := a.Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://d/", 100, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Responder != "a" {
		t.Fatalf("res = %+v, want remote hit via digest", res)
	}
	// Digest location sends no ICP queries.
	if b.ICP().QueriesSent != 0 {
		t.Fatalf("queries sent = %d, want 0", b.ICP().QueriesSent)
	}
	if b.ICP().DigestChecks == 0 {
		t.Fatal("no digest checks recorded")
	}
	// The summary is maintained incrementally: no full-scan rebuild ever
	// runs in steady state.
	if a.ICP().DigestRebuilds != 0 {
		t.Fatalf("rebuilds = %d, want 0 (incremental maintenance)", a.ICP().DigestRebuilds)
	}
}

func TestDigestAdvertisesNewContentImmediately(t *testing.T) {
	// The incremental summary tracks every mutation as it happens: a
	// document a caches is visible to b's next consultation with no
	// republication step and no rebuild.
	a := newDigestProxy(t, "a", 1<<20)
	b := newDigestProxy(t, "b", 1<<20)
	wire(t, a, b)

	if _, err := a.Request("http://d0/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("http://d0/", 100, at(1)); err != nil {
		t.Fatal(err)
	}

	// a caches a fresh document; the live summary lists it at once.
	if _, err := a.Request("http://fresh/", 100, at(2)); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://fresh/", 100, at(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Responder != "a" {
		t.Fatalf("res = %+v, want immediate remote hit", res)
	}
	if a.ICP().DigestRebuilds != 0 {
		t.Fatalf("rebuilds = %d, want 0", a.ICP().DigestRebuilds)
	}
	// Evictions leave the summary too: drop the documents and the
	// advertisement follows without a rebuild.
	a.Store().Remove("http://fresh/")
	if got, _, _ := a.DigestAdvertisement(); got == nil {
		t.Fatal("digest proxy returned no advertisement")
	}
	if a.advertisedMayContain("http://fresh/") {
		t.Fatal("removed document still advertised")
	}
}

// expiringOrigin hands out documents that expire ttl after the fetch.
type expiringOrigin struct{ ttl time.Duration }

func (o expiringOrigin) Fetch(url string, sizeHint int64, now time.Time) (cache.Document, error) {
	if sizeHint <= 0 {
		sizeHint = 4096
	}
	return cache.Document{URL: url, Size: sizeHint, Expires: now.Add(o.ttl)}, nil
}

func TestDigestFalseHitFallsThrough(t *testing.T) {
	// The summary advertises membership, not freshness: a's copy of X
	// expires while still resident, b's fetch attempt fails the
	// freshness check (false hit), and the request falls through to the
	// origin rather than erroring.
	a := newDigestProxyWithOrigin(t, "a", 1<<20, expiringOrigin{ttl: 2 * time.Second})
	b := newDigestProxyWithOrigin(t, "b", 1<<20, expiringOrigin{ttl: 2 * time.Second})
	wire(t, a, b)

	if _, err := a.Request("http://x/", 200, at(0)); err != nil {
		t.Fatal(err)
	}
	if !a.Store().Contains("http://x/") {
		t.Fatal("test setup: x not resident at a")
	}

	// At at(3) a's copy has expired but is still resident — and still
	// advertised, because the digest tracks membership only.
	res, err := b.Request("http://x/", 200, at(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss {
		t.Fatalf("res = %+v, want miss after false hit", res)
	}
	if b.ICP().DigestFalseHits == 0 {
		t.Fatal("false hit not recorded")
	}
}

func TestDigestMixedGroupFallsBackToExact(t *testing.T) {
	// A digest-mode proxy with an ICP-mode neighbour still finds its
	// documents: the neighbour answers exactly.
	a := newProxy(t, "a", 1<<20, core.AdHoc{}) // ICP mode
	b := newDigestProxy(t, "b", 1<<20)
	wire(t, a, b)

	if _, err := a.Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://d/", 100, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit {
		t.Fatalf("res = %+v", res)
	}
}

func TestDigestGroupWorkload(t *testing.T) {
	// A longer digest-mode workload: conservation holds and remote hits
	// happen without any ICP traffic.
	proxies := []*Proxy{
		newDigestProxy(t, "p0", 8<<10),
		newDigestProxy(t, "p1", 8<<10),
		newDigestProxy(t, "p2", 8<<10),
	}
	wire(t, proxies...)

	var c metrics.Counters
	for i := 0; i < 600; i++ {
		p := proxies[i%len(proxies)]
		url := fmt.Sprintf("http://w/doc%02d", i%25)
		res, err := p.Request(url, 900, at(i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		c.Record(res.Outcome, res.Doc.Size)
	}
	if s := c.Snapshot(); s.LocalHits+s.RemoteHits+s.Misses != s.Requests {
		t.Fatal("conservation violated")
	} else if s.RemoteHits == 0 {
		t.Fatal("digests produced no cooperative hits")
	}
	for _, p := range proxies {
		if p.ICP().QueriesSent != 0 {
			t.Fatalf("%s sent ICP queries in digest mode", p.ID())
		}
	}
}
