package netnode

// Hash-mode tests: consistent-hash home routing over live sockets — the
// single-copy invariant when the group is healthy, and the degradation
// chain when homes die (next-alive owner stands in, then the requester
// itself acts as home against the origin). The death scenarios are part
// of the chaos suite (`make chaos`) and skipped under -short.

import (
	"fmt"
	"testing"

	"eacache/internal/chash"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/resolve"
)

// meshHash wires nodes as full hash-mode peers, carrying each node's
// ring member name so every node builds the identical ring.
func meshHash(nodes []*Node, names []string) {
	for i, n := range nodes {
		var peers []Peer
		for j, other := range nodes {
			if i != j {
				peers = append(peers, Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr(), Name: names[j]})
			}
		}
		n.SetPeers(peers)
	}
}

// urlWithOwners finds a URL whose ownership chain starts with the given
// member names, so a test can pin which node is home (and who stands in
// when the home dies).
func urlWithOwners(t *testing.T, ring *chash.Ring, chain ...string) string {
	t.Helper()
next:
	for i := 0; i < 1000000; i++ {
		u := fmt.Sprintf("http://hash.example.edu/doc-%d.html", i)
		owners := ring.Owners(u, len(chain))
		if len(owners) != len(chain) {
			t.Fatalf("ring returned %d owners, want %d", len(owners), len(chain))
		}
		for j, want := range chain {
			if owners[j] != want {
				continue next
			}
		}
		return u
	}
	t.Fatalf("no URL found with owner chain %v", chain)
	return ""
}

func copiesAmong(url string, nodes ...*Node) int {
	n := 0
	for _, nd := range nodes {
		if nd.Contains(url) {
			n++
		}
	}
	return n
}

// TestHashModeSingleCopy: with all nodes healthy, a document lives only
// at its home node no matter who requests it, and repeat requests are
// served from that single copy without new origin fetches.
func TestHashModeSingleCopy(t *testing.T) {
	origin := startOrigin(t)
	names := []string{"h0", "h1", "h2"}
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = startChaosNode(t, Config{
			ID:         name,
			Store:      newStore(t, 1<<20),
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
			Location:   resolve.LocateHash,
			HashName:   name,
		})
	}
	meshHash(nodes, names)

	ring, err := chash.New(0, names...)
	if err != nil {
		t.Fatal(err)
	}
	url := urlWithOwners(t, ring, "h1", "h2")

	// A non-home request: the home resolves from the origin and keeps
	// the only copy; the requester stores nothing.
	res, err := nodes[0].Request(url, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss || res.Stored {
		t.Fatalf("first request = %+v, want un-stored miss through the home", res)
	}
	if !nodes[1].Contains(url) || copiesAmong(url, nodes...) != 1 {
		t.Fatalf("copy not (only) at home: %d copies", copiesAmong(url, nodes...))
	}

	// Repeat from every non-home node: remote hits off the home copy.
	for _, nd := range []*Node{nodes[0], nodes[2]} {
		res, err := nd.Request(url, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != metrics.RemoteHit || res.Responder != nodes[1].HTTPAddr() || res.Stored {
			t.Fatalf("%s request = %+v, want remote hit from home", nd.ID(), res)
		}
	}
	// And at the home itself: a plain local hit.
	if res, err := nodes[1].Request(url, 4096); err != nil || res.Outcome != metrics.LocalHit {
		t.Fatalf("home request = %+v, %v", res, err)
	}
	if origin.Fetches() != 1 || copiesAmong(url, nodes...) != 1 {
		t.Fatalf("origin fetches = %d, copies = %d; want 1 and 1",
			origin.Fetches(), copiesAmong(url, nodes...))
	}
}

// TestChaosHashHomeDeathFailsOver is the hash-mode degradation chain:
// the home dies mid-operation, the requester's fetch fails and opens the
// breaker, and the ring's next-alive owner stands in as acting home —
// first resolving from the origin, then serving its copy. When every
// other owner is dead too, the requester itself acts as home against
// the origin. Every request completes; nothing wedges.
func TestChaosHashHomeDeathFailsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	origin := startOrigin(t)
	names := []string{"h0", "h1", "h2", "h3"}
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = startChaosNode(t, Config{
			ID:         name,
			Store:      newStore(t, 1<<20),
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
			Location:   resolve.LocateHash,
			HashName:   name,
			// One failed fetch marks a peer dead: the second request
			// must already route past the corpse.
			DeadAfter: 1,
		})
	}
	meshHash(nodes, names)

	ring, err := chash.New(0, names...)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the whole failover order: home h1, stand-in h2, then the
	// requester h0 itself — so each death hands the document to a known
	// next owner.
	url := urlWithOwners(t, ring, "h1", "h2", "h0")

	// Healthy baseline: the home holds the only copy.
	if _, err := nodes[0].Request(url, 4096); err != nil {
		t.Fatal(err)
	}
	if !nodes[1].Contains(url) {
		t.Fatal("home did not keep the copy")
	}

	// The home dies. The requester's next fetch fails over to the
	// next-alive owner in the same request — the chain carries both
	// candidates — and that owner re-resolves from the origin and keeps
	// the group's copy.
	_ = nodes[1].Close()
	res, err := nodes[0].Request(url, 4096)
	if err != nil {
		t.Fatalf("request with dead home: %v", err)
	}
	if res.Outcome != metrics.Miss || res.Stored {
		t.Fatalf("dead-home request = %+v, want un-stored miss via stand-in", res)
	}
	if !nodes[2].Contains(url) {
		t.Fatal("next-alive owner did not stand in as home")
	}
	if nodes[0].Contains(url) {
		t.Fatal("requester stored despite hash placement")
	}

	// Breaker is now open on the corpse: the follow-up request goes
	// straight to the stand-in and is a remote hit off its copy.
	res, err = nodes[0].Request(url, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Responder != nodes[2].HTTPAddr() {
		t.Fatalf("failover request = %+v, want remote hit from %s", res, nodes[2].HTTPAddr())
	}
	fetchesBefore := origin.Fetches()

	// Total degradation: the stand-in dies too. The first request pays
	// the discovery fetch (it opens h2's breaker) and degrades to the
	// origin without storing — the chain still named a candidate, so
	// placement stayed with the (now dead) home. The next request sees
	// no live owner before self, so the requester acts as home: it
	// fetches from the origin and keeps the copy, and from then on the
	// document is a plain local hit.
	_ = nodes[2].Close()
	res, err = nodes[0].Request(url, 4096)
	if err != nil {
		t.Fatalf("request with all owners dead: %v", err)
	}
	if res.Outcome != metrics.Miss || res.Stored {
		t.Fatalf("discovery request = %+v, want un-stored origin miss", res)
	}
	res, err = nodes[0].Request(url, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss || !res.Stored || !nodes[0].Contains(url) {
		t.Fatalf("acting-home request = %+v (stored copy: %v), want stored miss",
			res, nodes[0].Contains(url))
	}
	if res, err := nodes[0].Request(url, 4096); err != nil || res.Outcome != metrics.LocalHit {
		t.Fatalf("post-adoption request = %+v, %v; want local hit", res, err)
	}
	if origin.Fetches() <= fetchesBefore {
		t.Fatal("degraded requests never reached the origin")
	}
}
