package netnode

import (
	"fmt"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
)

func newStore(t *testing.T, capacity int64) *cache.ShardedStore {
	t.Helper()
	s, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: capacity, ExpirationHorizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func startOrigin(t *testing.T) *OriginServer {
	t.Helper()
	o, err := NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = o.Close() })
	return o
}

func startNode(t *testing.T, id string, capacity int64, scheme core.Scheme, origin string) *Node {
	t.Helper()
	n, err := New(Config{
		ID:         id,
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      newStore(t, capacity),
		Scheme:     scheme,
		OriginAddr: origin,
		ICPTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// mesh wires nodes as full peers.
func mesh(nodes ...*Node) {
	for i, n := range nodes {
		var peers []Peer
		for j, other := range nodes {
			if i != j {
				peers = append(peers, Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr()})
			}
		}
		n.SetPeers(peers)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Scheme: core.AdHoc{}}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(Config{Store: newStore(t, 100)}); err == nil {
		t.Fatal("nil scheme accepted")
	}
}

func TestMissThenLocalHitOverWire(t *testing.T) {
	origin := startOrigin(t)
	n := startNode(t, "n0", 1<<20, core.AdHoc{}, origin.Addr())

	res, err := n.Request("http://d.example.edu/a.html", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss || res.Size != 2048 || !res.Stored {
		t.Fatalf("first request = %+v", res)
	}
	if origin.Fetches() != 1 {
		t.Fatalf("origin fetches = %d", origin.Fetches())
	}

	res, err = n.Request("http://d.example.edu/a.html", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.LocalHit {
		t.Fatalf("second request = %+v", res)
	}
	if origin.Fetches() != 1 {
		t.Fatal("local hit went to origin")
	}
}

func TestRemoteHitOverWire(t *testing.T) {
	origin := startOrigin(t)
	a := startNode(t, "a", 1<<20, core.AdHoc{}, origin.Addr())
	b := startNode(t, "b", 1<<20, core.AdHoc{}, origin.Addr())
	mesh(a, b)

	if _, err := a.Request("http://d.example.edu/x", 1000); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://d.example.edu/x", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit {
		t.Fatalf("res = %+v, want remote hit", res)
	}
	if res.Responder != a.HTTPAddr() {
		t.Fatalf("responder = %q, want %q", res.Responder, a.HTTPAddr())
	}
	// Ad-hoc: b stored a copy; no extra origin fetch happened.
	if !b.Contains("http://d.example.edu/x") {
		t.Fatal("requester did not store under ad-hoc")
	}
	if origin.Fetches() != 1 {
		t.Fatalf("origin fetches = %d, want 1", origin.Fetches())
	}
}

func TestEATieNoReplicationOverWire(t *testing.T) {
	origin := startOrigin(t)
	a := startNode(t, "a", 1<<20, core.EA{}, origin.Addr())
	b := startNode(t, "b", 1<<20, core.EA{}, origin.Addr())
	mesh(a, b)

	if _, err := a.Request("http://d.example.edu/x", 1000); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://d.example.edu/x", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Stored {
		t.Fatalf("res = %+v, want unstored remote hit (cold tie)", res)
	}
	if b.Contains("http://d.example.edu/x") {
		t.Fatal("EA replicated on a cold tie")
	}
}

func TestMissWithoutOriginFails(t *testing.T) {
	n := startNode(t, "n", 1<<20, core.AdHoc{}, "")
	if _, err := n.Request("http://nowhere/", 100); err == nil {
		t.Fatal("miss without origin succeeded")
	}
}

func TestGroupWorkloadOverWire(t *testing.T) {
	origin := startOrigin(t)
	scheme := core.EA{}
	nodes := []*Node{
		startNode(t, "n0", 64<<10, scheme, origin.Addr()),
		startNode(t, "n1", 64<<10, scheme, origin.Addr()),
		startNode(t, "n2", 64<<10, scheme, origin.Addr()),
	}
	mesh(nodes...)

	var counters metrics.Counters
	for i := 0; i < 300; i++ {
		node := nodes[i%len(nodes)]
		url := fmt.Sprintf("http://w.example.edu/doc%02d", i%20)
		res, err := node.Request(url, 1500)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		counters.Record(res.Outcome, res.Size)
	}
	snap := counters.Snapshot()
	if snap.Requests != 300 {
		t.Fatalf("requests = %d", snap.Requests)
	}
	if snap.Hits() == 0 {
		t.Fatal("no hits across a 20-doc working set")
	}
	if snap.RemoteHits == 0 {
		t.Fatal("no cooperative (remote) hits over the wire")
	}
	if origin.Fetches() == 0 || origin.Fetches() > snap.Misses {
		t.Fatalf("origin fetches = %d, misses = %d", origin.Fetches(), snap.Misses)
	}
}

func TestCloseIdempotent(t *testing.T) {
	origin := startOrigin(t)
	n := startNode(t, "n", 1<<20, core.AdHoc{}, origin.Addr())
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := origin.Close(); err != nil {
		t.Fatal(err)
	}
	if err := origin.Close(); err != nil {
		t.Fatalf("second origin close: %v", err)
	}
}

func TestExpirationAgeExposed(t *testing.T) {
	origin := startOrigin(t)
	n := startNode(t, "n", 4<<10, core.EA{}, origin.Addr())
	if n.ExpirationAge() != cache.NoContention {
		t.Fatal("cold node should report NoContention")
	}
	// Overflow the 4KB cache to force evictions.
	for i := 0; i < 8; i++ {
		if _, err := n.Request(fmt.Sprintf("http://w/doc%d", i), 1024); err != nil {
			t.Fatal(err)
		}
	}
	if n.ExpirationAge() == cache.NoContention {
		t.Fatal("churned node still reports NoContention")
	}
}
