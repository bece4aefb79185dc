package netnode

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"eacache/internal/core"
	"eacache/internal/digest"
	"eacache/internal/metrics"
	"eacache/internal/resolve"
)

// startDigestNode builds a node that locates documents via peer digests.
func startDigestNode(t *testing.T, id string, capacity int64, origin string) *Node {
	t.Helper()
	n, err := New(Config{
		ID:            id,
		ICPAddr:       "127.0.0.1:0",
		HTTPAddr:      "127.0.0.1:0",
		Store:         newStore(t, capacity),
		Scheme:        core.EA{},
		OriginAddr:    origin,
		Location:      resolve.LocateDigest,
		DigestRefresh: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestFilterBinaryRoundTrip(t *testing.T) {
	f, err := digest.NewFilter(500, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		f.Add(fmt.Sprintf("http://w/doc%d", i))
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g digest.Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Bits() != f.Bits() || g.Hashes() != f.Hashes() || g.Len() != f.Len() {
		t.Fatalf("geometry changed: %d/%d/%d vs %d/%d/%d",
			g.Bits(), g.Hashes(), g.Len(), f.Bits(), f.Hashes(), f.Len())
	}
	for i := 0; i < 300; i++ {
		if !g.MayContain(fmt.Sprintf("http://w/doc%d", i)) {
			t.Fatalf("decoded filter lost doc%d", i)
		}
	}
}

func TestFilterUnmarshalRejectsGarbage(t *testing.T) {
	var f digest.Filter
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXX\x01\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00\x00\x00\x00\x00\x00"),
	}
	for _, data := range cases {
		if err := f.UnmarshalBinary(data); err == nil {
			t.Fatalf("garbage accepted: %q", data)
		}
	}
	// Valid header with mismatched body length.
	good, err := digest.NewFilter(64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	data, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.UnmarshalBinary(data[:len(data)-8]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestDigestRemoteHitOverWire(t *testing.T) {
	origin := startOrigin(t)
	a := startDigestNode(t, "a", 1<<20, origin.Addr())
	b := startDigestNode(t, "b", 1<<20, origin.Addr())
	mesh(a, b)

	if _, err := a.Request("http://w/x", 1000); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://w/x", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Responder != a.HTTPAddr() {
		t.Fatalf("res = %+v, want remote hit via digest", res)
	}
	if origin.Fetches() != 1 {
		t.Fatalf("origin fetches = %d", origin.Fetches())
	}
}

func TestDigestStalePeerCopyFallsThroughToOrigin(t *testing.T) {
	origin := startOrigin(t)
	a := startDigestNode(t, "a", 2100, origin.Addr()) // ~2 documents
	b := startDigestNode(t, "b", 1<<20, origin.Addr())
	mesh(a, b)

	// a caches x; b fetches a's digest (which advertises x).
	if _, err := a.Request("http://w/x", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("http://w/x", 1000); err != nil {
		t.Fatal(err)
	}
	// a evicts x under churn; b's cached digest is now stale.
	if _, err := a.Request("http://w/y", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request("http://w/z", 1000); err != nil {
		t.Fatal(err)
	}
	if a.Contains("http://w/x") {
		t.Skip("x still resident; eviction pattern changed")
	}
	// b itself never stored x (cold EA tie), so this request must ride
	// the stale digest, get a false hit, and fall through to the origin.
	before := origin.Fetches()
	res, err := b.Request("http://w/x", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss {
		t.Fatalf("res = %+v, want miss after stale digest", res)
	}
	if origin.Fetches() != before+1 {
		t.Fatalf("origin fetches = %d, want %d", origin.Fetches(), before+1)
	}
}

func TestDigestRefreshPicksUpNewContent(t *testing.T) {
	origin := startOrigin(t)
	a := startDigestNode(t, "a", 1<<20, origin.Addr())
	b := startDigestNode(t, "b", 1<<20, origin.Addr())
	mesh(a, b)

	// Prime b's cached digest of a (empty at this point).
	if _, err := b.Request("http://w/seed", 500); err != nil {
		t.Fatal(err)
	}
	// a caches fresh content.
	if _, err := a.Request("http://w/new", 500); err != nil {
		t.Fatal(err)
	}
	// After the refresh window, b re-fetches a's digest and finds it.
	time.Sleep(80 * time.Millisecond)
	res, err := b.Request("http://w/new", 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit {
		t.Fatalf("res = %+v, want remote hit after digest refresh", res)
	}
}

func TestICPNodeServes404ForDigestURL(t *testing.T) {
	origin := startOrigin(t)
	icpNode := startNode(t, "plain", 1<<20, core.EA{}, origin.Addr())
	if _, _, _, err := icpNode.fetchDigestSince(icpNode.HTTPAddr(), 0, nil); err == nil {
		t.Fatal("non-digest node served a digest")
	}
}

// The reserved URL without a query means since=0: the answer is the full
// sync envelope, the same encoding every other digest response uses.
func TestDigestBareURLServesFullEnvelope(t *testing.T) {
	origin := startOrigin(t)
	n := startDigestNode(t, "a", 1<<20, origin.Addr())
	if _, err := n.Request("http://w/held", 500); err != nil {
		t.Fatal(err)
	}
	body, err := n.fetchDigestBody(n.HTTPAddr(), DigestURL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := digest.DecodeSync(body)
	if err != nil {
		t.Fatalf("bare %s response is not a sync envelope: %v", DigestURL, err)
	}
	if s.Full == nil || s.Delta != nil || s.Gen == 0 || !s.Full.MayContain("http://w/held") {
		t.Fatalf("bare URL answered %+v, want a full transfer advertising the held document", s)
	}
}

func TestDigestNodeID(t *testing.T) {
	origin := startOrigin(t)
	n := startDigestNode(t, "named", 1<<20, origin.Addr())
	if n.ID() != "named" {
		t.Fatalf("ID = %q", n.ID())
	}
}

func TestNewDigestStateDefaultsRefresh(t *testing.T) {
	ds, err := newDigestState(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.refresh != DefaultDigestRefresh {
		t.Fatalf("refresh = %v", ds.refresh)
	}
}

func TestFetchFromErrors(t *testing.T) {
	origin := startOrigin(t)
	node := startNode(t, "n", 1<<20, core.EA{}, origin.Addr())
	// Unreachable address.
	if _, _, _, err := node.fetchFrom(nil, "127.0.0.1:1", "http://x/", 10, 0, false, 0); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	// A responder that 404s maps to errNotFound (a miss, not a fault).
	_, _, _, err := node.fetchFrom(nil, node.HTTPAddr(), "http://absent/", 10, 0, false, 0)
	if err == nil {
		t.Fatal("404 fetch reported success")
	}
	if !errors.Is(err, errNotFound) {
		t.Fatalf("404 fetch error = %v, want errNotFound", err)
	}
}
