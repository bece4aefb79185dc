package netnode

// The churn gate: a live hash group under continuous traffic while
// membership changes out from under it — a node is killed and ejected,
// a fresh node joins and takes its ring share, and the corpse revives
// on its old addresses and is readmitted. At every settled intermediate
// step the single-copy invariant must hold across the live members, no
// client request may fail, and the migration accounting must balance.
// `make churn-smoke` runs this under -race -short; the -v log carries
// the per-step accounting as the CI artifact.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eacache/internal/chash"
	"eacache/internal/core"
	"eacache/internal/hproto"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

// churnConfig sizes the scenario: -short (the CI smoke) runs the same
// transitions over a smaller catalogue instead of skipping. Either
// catalogue is larger than the group's memory (three 1 MB stores), so
// every node evicts before the first epoch change and each join or
// readmission hands the entering node a share of full stores.
type churnConfig struct {
	docs     int
	size     int64 // each document's size hint
	interval time.Duration
}

func churnSize() churnConfig {
	if testing.Short() {
		return churnConfig{docs: 30, size: 256 << 10, interval: 2 * time.Millisecond}
	}
	return churnConfig{docs: 80, size: 128 << 10, interval: time.Millisecond}
}

// startChurnNode starts one hash node with the fast ejection/readmission
// knobs the scenario runs under. Empty addrs mean "pick a port".
func startChurnNode(t *testing.T, originAddr, name, icpAddr, httpAddr string) *Node {
	t.Helper()
	return startChaosNode(t, Config{
		ID: name, ICPAddr: icpAddr, HTTPAddr: httpAddr,
		Scheme: core.EA{}, OriginAddr: originAddr,
		Location: resolve.LocateHash, HashName: name,
		DeadAfter:    1,
		EjectAfter:   50 * time.Millisecond,
		ReadmitProbe: 25 * time.Millisecond,
	})
}

// waitSettled waits until a node has published epoch work and finished
// the migration pass for it: the latest report matches the current
// epoch and was not aborted by a newer one.
func waitSettled(t *testing.T, n *Node, what string) MigrationReport {
	t.Helper()
	var rep MigrationReport
	waitFor(t, 5*time.Second, what, func() bool {
		r, ok := n.LastMigration()
		if !ok || r.Aborted || r.Epoch != n.Epoch() {
			return false
		}
		rep = r
		return true
	})
	if got := rep.Kept + rep.Transferred + rep.SkippedEA + rep.Refused + rep.Failed; got != rep.Scanned {
		t.Fatalf("%s: accounting leak at %s: %+v", n.ID(), what, rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("%s: failed transfers at %s: %+v", n.ID(), what, rep)
	}
	t.Logf("%s migration after %s: %+v", n.ID(), what, rep)
	return rep
}

// assertSingleCopy checks the hash-mode placement invariant over the
// current live membership: no document has more than one copy.
func assertSingleCopy(t *testing.T, step string, urls []string, live ...*Node) {
	t.Helper()
	for _, u := range urls {
		if c := copiesAmong(u, live...); c > 1 {
			t.Fatalf("%s: %s has %d copies", step, u, c)
		}
	}
}

// TestChaosChurnKillJoinRevive is the full kill-and-join-under-traffic
// scenario the elastic-membership work must survive.
func TestChaosChurnKillJoinRevive(t *testing.T) {
	checkGoroutines(t)
	size := churnSize()
	origin := startOrigin(t)

	names := []string{"c0", "c1", "c2"}
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = startChurnNode(t, origin.Addr(), name, "", "")
	}
	meshHash(nodes, names)

	urls := make([]string, size.docs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://churn.example.edu/doc-%d.html", i)
	}

	// Continuous client traffic through the two nodes that stay up for
	// the whole test (c1 is the victim). Any request error fails the
	// gate: clients must never see churn.
	entries := []*Node{nodes[0], nodes[2]}
	var (
		trafficWG   sync.WaitGroup
		stopTraffic = make(chan struct{})
		requests    atomic.Int64
		errCount    atomic.Int64
		errOnce     sync.Once
		firstErr    error
	)
	trafficWG.Add(1)
	go func() {
		defer trafficWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopTraffic:
				return
			default:
			}
			url := urls[i%len(urls)]
			if _, err := entries[i%len(entries)].Request(url, size.size); err != nil {
				errCount.Add(1)
				errOnce.Do(func() { firstErr = fmt.Errorf("request %s: %w", url, err) })
			}
			requests.Add(1)
			time.Sleep(size.interval)
		}
	}()
	stop := func() {
		close(stopTraffic)
		trafficWG.Wait()
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()

	// Warm the group so the kill has resident state to orphan, and until
	// every node has evicted: the stores the passes below walk are full.
	waitFor(t, 10*time.Second, "warmup traffic", func() bool {
		if requests.Load() <= int64(2*size.docs) {
			return false
		}
		for _, n := range nodes {
			if n.store.Evictions() == 0 {
				return false
			}
		}
		return true
	})

	// Step 1 — kill c1. The survivors' breakers see the corpse, the
	// sweeper ejects it, and the rebalance pass re-homes its share.
	victimICP := nodes[1].ICPAddr().String()
	victimHTTP := nodes[1].HTTPAddr()
	if err := nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	survivors := []*Node{nodes[0], nodes[2]}
	for _, n := range survivors {
		n := n
		waitFor(t, 5*time.Second, "ejection of c1 at "+n.ID(), func() bool {
			for _, m := range n.Members() {
				if m.Name == "c1" && m.Ejected {
					return true
				}
			}
			return false
		})
	}
	for _, n := range survivors {
		waitSettled(t, n, "ejection")
	}
	assertSingleCopy(t, "after ejection", urls, survivors...)

	// Step 2 — runtime join of c3 with the current live view; the
	// survivors hand over its ring share.
	joiner := startChurnNode(t, origin.Addr(), "c3", "", "")
	joiner.SetPeers([]Peer{
		{ICP: nodes[0].ICPAddr(), HTTP: nodes[0].HTTPAddr(), Name: "c0"},
		{ICP: nodes[2].ICPAddr(), HTTP: nodes[2].HTTPAddr(), Name: "c2"},
	})
	joinerPeer := Peer{ICP: joiner.ICPAddr(), HTTP: joiner.HTTPAddr(), Name: "c3"}
	for _, n := range survivors {
		if err := n.AddPeer(joinerPeer); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range survivors {
		waitSettled(t, n, "join of c3")
	}
	live := []*Node{nodes[0], nodes[2], joiner}
	assertSingleCopy(t, "after join", urls, live...)

	// Step 3 — revive the victim on its old addresses. The survivors'
	// readmission probes find the fresh listener and re-add it without
	// operator action; the joiner (which never knew c1) learns it by an
	// explicit join, and the revived node gets the current view.
	revived := startChurnNode(t, origin.Addr(), "c1", victimICP, victimHTTP)
	revived.SetPeers([]Peer{
		{ICP: nodes[0].ICPAddr(), HTTP: nodes[0].HTTPAddr(), Name: "c0"},
		{ICP: nodes[2].ICPAddr(), HTTP: nodes[2].HTTPAddr(), Name: "c2"},
		{ICP: joiner.ICPAddr(), HTTP: joiner.HTTPAddr(), Name: "c3"},
	})
	if err := joiner.AddPeer(Peer{ICP: revived.ICPAddr(), HTTP: revived.HTTPAddr(), Name: "c1"}); err != nil {
		t.Fatal(err)
	}
	for _, n := range survivors {
		n := n
		waitFor(t, 5*time.Second, "readmission of c1 at "+n.ID(), func() bool {
			for _, m := range n.Members() {
				if m.Name == "c1" && !m.Ejected {
					return true
				}
			}
			return false
		})
		if rb := n.Robustness(); rb.Ejections < 1 || rb.Readmissions < 1 {
			t.Fatalf("%s: ejections=%d readmissions=%d, want >=1 each", n.ID(), rb.Ejections, rb.Readmissions)
		}
	}
	live = []*Node{nodes[0], nodes[2], joiner, revived}
	for _, n := range []*Node{nodes[0], nodes[2], joiner} {
		waitSettled(t, n, "readmission of c1")
	}
	assertSingleCopy(t, "after readmission", urls, live...)

	stop()
	stopped = true

	// The gate: clients never saw the churn.
	if n := errCount.Load(); n > 0 {
		t.Fatalf("%d of %d requests failed during churn; first: %v", n, requests.Load(), firstErr)
	}
	t.Logf("churn complete: %d requests, 0 errors", requests.Load())

	// The revived node runs its own migration pass for the view it was
	// given; the final requests must not race it.
	waitSettled(t, revived, "revival of c1")

	// No lost documents: every URL still resolves through an entry node.
	for _, u := range urls {
		if _, err := nodes[0].Request(u, size.size); err != nil {
			t.Fatalf("document lost after churn: %s: %v", u, err)
		}
	}
	assertSingleCopy(t, "final", urls, live...)
}

// TestHomeStoreAfterEpochChange forces the interleaving behind the churn
// gate's "has 2 copies". A requester locates a URL as its own home; before
// the origin answers, a join moves the URL to the new member, and the
// requester's migration pass for that epoch walks a store that does not
// hold the URL yet. The requester must not store the copy it located
// under the old ring, where no later pass would move it and the new owner
// would keep a second copy on the next request: its placement record is
// an accept that the store refused as off-ring.
func TestHomeStoreAfterEpochChange(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)

	// A gated origin in front of the real one parks each connection until
	// gate closes, then pipes it through.
	gated, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gated.Close() })
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	go func() {
		for {
			conn, err := gated.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				select {
				case parked <- struct{}{}:
				default:
				}
				<-gate
				up, err := net.Dial("tcp", origin.Addr())
				if err != nil {
					return
				}
				defer up.Close()
				go func() { _, _ = io.Copy(up, conn); _ = up.Close() }()
				_, _ = io.Copy(conn, up)
			}()
		}
	}()

	tel := obs.New("a", 8)
	a := startChaosNode(t, Config{
		ID: "a", Scheme: core.EA{}, OriginAddr: gated.Addr().String(),
		Location: resolve.LocateHash, HashName: "a", Obs: tel,
	})
	b := startChurnNode(t, origin.Addr(), "b", "", "")
	meshHash([]*Node{a, b}, []string{"a", "b"})
	before, err := chash.New(0, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	after, err := chash.New(0, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	var u string
	for i := 0; u == ""; i++ {
		v := fmt.Sprintf("http://hash.example.edu/doc-%d.html", i)
		if before.Owners(v, 1)[0] == "a" && after.Owners(v, 1)[0] == "c" {
			u = v
		}
	}

	done := make(chan error, 1)
	go func() {
		res, err := a.Request(u, 2048)
		if err == nil && res.Stored {
			err = fmt.Errorf("the stale home stored %s", u)
		}
		done <- err
	}()
	<-parked

	c := startChurnNode(t, origin.Addr(), "c", "", "")
	c.SetPeers([]Peer{
		{ICP: a.ICPAddr(), HTTP: a.HTTPAddr(), Name: "a"},
		{ICP: b.ICPAddr(), HTTP: b.HTTPAddr(), Name: "b"},
	})
	for _, n := range []*Node{a, b} {
		if err := n.AddPeer(Peer{ICP: c.ICPAddr(), HTTP: c.HTTPAddr(), Name: "c"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*Node{a, b, c} {
		waitSettled(t, n, "join of c")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ds := tel.Placement.Snapshot()
	if d := ds[len(ds)-1]; d.Verdict != obs.DecisionAccept || d.Outcome != obs.OutcomeRefused || d.Reason != obs.ReasonOffRing {
		t.Fatalf("stale home store recorded %+v, want an accept refused off-ring", d)
	}
	if _, err := b.Request(u, 2048); err != nil {
		t.Fatal(err)
	}
	assertSingleCopy(t, "after the stale home store", []string{u}, a, b, c)
}

// TestResolveCarriesTheLocatedRing: a resolve request carries the
// fingerprint of the ring its responder was located on, not that of a
// ring published between the locate and the send. Otherwise a home that
// had already moved to the new ring would see its own fingerprint, take
// the request for failover and keep a copy that its migration pass had
// just pushed to the URL's new owner.
func TestResolveCarriesTheLocatedRing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	sent := make(chan uint64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := hproto.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		sent <- req.RingFP
		_ = hproto.WriteResponse(conn, hproto.Response{Status: hproto.StatusNotFound}, nil)
	}()

	udp := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	a := startChurnNode(t, "", "a", "", "")
	a.SetPeers([]Peer{{ICP: udp, HTTP: ln.Addr().String(), Name: "b"}})
	located := a.hash.Load()
	u := urlWithOwners(t, located.Ring, "b", "a")
	cands := located.Locate(nil, u, time.Time{}).Candidates
	if err := a.AddPeer(Peer{ICP: udp, HTTP: "127.0.0.1:1", Name: "c"}); err != nil {
		t.Fatal(err)
	}
	if a.RingFingerprint() == located.Fingerprint {
		t.Fatal("the join did not change the ring")
	}
	if _, status := (nodeTransport{a}).FetchRemote(nil, cands[0], u, 10, 0, true, time.Time{}); status != resolve.FetchNotFound {
		t.Fatalf("FetchRemote status %v, want not found", status)
	}
	if got := <-sent; got != located.Fingerprint {
		t.Fatalf("resolve request carried ring %x, want the located ring %x (published since: %x)", got, located.Fingerprint, a.RingFingerprint())
	}
}
