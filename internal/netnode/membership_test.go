package netnode

// Elastic-membership tests: runtime join/leave validation and publishing,
// breaker-driven ejection and readmission, EA-aware migration on topology
// change, drain handoff, push acceptance, and the admin API. The full
// kill-and-join-under-traffic scenario lives in churn_test.go.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/chash"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/resolve"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func udpAddr(t *testing.T, s string) *net.UDPAddr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAddPeerValidation(t *testing.T) {
	n := startChaosNode(t, Config{
		ID: "v0", Scheme: core.EA{}, Location: resolve.LocateHash, HashName: "v0",
	})
	icp := udpAddr(t, "127.0.0.1:19001")
	if err := n.AddPeer(Peer{HTTP: "127.0.0.1:19101"}); err == nil {
		t.Fatal("peer without ICP address accepted")
	}
	if err := n.AddPeer(Peer{ICP: icp}); err == nil {
		t.Fatal("peer without fetch address accepted")
	}
	if err := n.AddPeer(Peer{ICP: icp, HTTP: "127.0.0.1:19101", Name: "v0"}); err == nil {
		t.Fatal("peer colliding with own ring name accepted")
	}
	if err := n.AddPeer(Peer{ICP: icp, HTTP: "127.0.0.1:19101", Name: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddPeer(Peer{ICP: icp, HTTP: "127.0.0.1:19101", Name: "v9"}); err == nil {
		t.Fatal("duplicate fetch address accepted")
	}
	if err := n.AddPeer(Peer{ICP: icp, HTTP: "127.0.0.1:19102", Name: "v1"}); err == nil {
		t.Fatal("duplicate ring name accepted")
	}
}

func TestAddRemovePeerPublishes(t *testing.T) {
	n := startChaosNode(t, Config{
		ID: "p0", Scheme: core.EA{}, Location: resolve.LocateHash, HashName: "p0",
	})
	if n.Epoch() != 0 {
		t.Fatalf("fresh node epoch = %d", n.Epoch())
	}
	p := Peer{ICP: udpAddr(t, "127.0.0.1:19011"), HTTP: "127.0.0.1:19111", Name: "p1"}
	if err := n.AddPeer(p); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 1 || len(n.peerList()) != 1 {
		t.Fatalf("after join: epoch %d, %d peers", n.Epoch(), len(n.peerList()))
	}
	h := n.hash.Load()
	if h == nil || !h.Ring.Contains("p1") || h.Epoch != 1 {
		t.Fatalf("locator not rebuilt for join: %+v", h)
	}
	// Removal works by ring name as well as by fetch address.
	if err := n.RemovePeer("p1"); err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 2 || len(n.peerList()) != 0 {
		t.Fatalf("after leave: epoch %d, %d peers", n.Epoch(), len(n.peerList()))
	}
	if h = n.hash.Load(); h.Ring.Contains("p1") {
		t.Fatal("locator still routes to the departed peer")
	}
	if err := n.RemovePeer("p1"); err == nil {
		t.Fatal("double remove accepted")
	}
}

// TestEjectionAndReadmission: a peer dead past the grace window leaves
// the locator set (epoch bump, ejected flag in the membership table) and
// rejoins when the breaker proves it back in-band.
func TestEjectionAndReadmission(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)
	n := startChaosNode(t, Config{
		ID: "e0", Scheme: core.EA{}, OriginAddr: origin.Addr(),
		Location: resolve.LocateHash, HashName: "e0",
		DeadAfter:    1,
		EjectAfter:   20 * time.Millisecond,
		ReadmitProbe: 10 * time.Millisecond,
	})
	dead := deadTCPAddr(t)
	if err := n.AddPeer(Peer{ICP: udpAddr(t, "127.0.0.1:19021"), HTTP: dead, Name: "e1"}); err != nil {
		t.Fatal(err)
	}
	epochAfterJoin := n.Epoch()

	// Fail a fetch against the corpse so the breaker opens; the sweeper
	// must then eject it within a few grace windows.
	ring, err := chash.New(0, "e0", "e1")
	if err != nil {
		t.Fatal(err)
	}
	url := urlWithOwners(t, ring, "e1", "e0")
	if _, err := n.Request(url, 1024); err != nil {
		t.Fatalf("request against dead home should degrade, got %v", err)
	}
	waitFor(t, 2*time.Second, "ejection", func() bool {
		for _, m := range n.Members() {
			if m.HTTP == dead && m.Ejected {
				return true
			}
		}
		return false
	})
	if n.Epoch() <= epochAfterJoin {
		t.Fatal("ejection did not publish a new epoch")
	}
	if len(n.peerList()) != 0 {
		t.Fatal("ejected peer still in the active snapshot")
	}
	if h := n.hash.Load(); h.Ring.Contains("e1") {
		t.Fatal("ejected peer still on the ring")
	}
	if rb := n.Robustness(); rb.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", rb.Ejections)
	}

	// In-band recovery: the breaker learns the peer is back (here via a
	// direct success report); the next sweep readmits without a probe.
	n.reportSuccess(dead)
	waitFor(t, 2*time.Second, "readmission", func() bool {
		return len(n.peerList()) == 1
	})
	// A publish swaps the peer snapshot first and the ring second, so the
	// ring is waited for, not read once.
	waitFor(t, 2*time.Second, "the readmitted peer back on the ring", func() bool {
		return n.hash.Load().Ring.Contains("e1")
	})
	if rb := n.Robustness(); rb.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", rb.Readmissions)
	}
}

// startHashGroup boots a fully meshed hash group over fresh nodes.
func startHashGroup(t *testing.T, origin *OriginServer, names ...string) []*Node {
	t.Helper()
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = startChaosNode(t, Config{
			ID: name, Scheme: core.EA{}, OriginAddr: origin.Addr(),
			Location: resolve.LocateHash, HashName: name,
		})
	}
	meshHash(nodes, names)
	return nodes
}

// TestMigrationOnJoin: documents resident before a join are handed to the
// joiner when the new ring makes it their home, the accounting balances,
// and no document ever has more than one copy.
func TestMigrationOnJoin(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)
	nodes := startHashGroup(t, origin, "m0", "m1")

	const docs = 60
	urls := make([]string, docs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://migrate.example.edu/doc-%d.html", i)
		if _, err := nodes[0].Request(urls[i], 2048); err != nil {
			t.Fatal(err)
		}
	}

	joiner := startChaosNode(t, Config{
		ID: "m2", Scheme: core.EA{}, OriginAddr: origin.Addr(),
		Location: resolve.LocateHash, HashName: "m2",
	})
	joiner.SetPeers([]Peer{
		{ICP: nodes[0].ICPAddr(), HTTP: nodes[0].HTTPAddr(), Name: "m0"},
		{ICP: nodes[1].ICPAddr(), HTTP: nodes[1].HTTPAddr(), Name: "m1"},
	})
	joinerPeer := Peer{ICP: joiner.ICPAddr(), HTTP: joiner.HTTPAddr(), Name: "m2"}
	for _, n := range nodes {
		if err := n.AddPeer(joinerPeer); err != nil {
			t.Fatal(err)
		}
	}

	// The joiner's share under the grown ring must end up exactly there.
	grown, err := chash.New(0, "m0", "m1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	var joinerOwned []string
	for _, u := range urls {
		if grown.Owner(u) == "m2" {
			joinerOwned = append(joinerOwned, u)
		}
	}
	if len(joinerOwned) == 0 {
		t.Fatal("test needs at least one document homed at the joiner")
	}
	waitFor(t, 5*time.Second, "migration to the joiner", func() bool {
		for _, u := range joinerOwned {
			if !joiner.Contains(u) {
				return false
			}
		}
		return true
	})

	// Single-copy invariant after the move, for every document.
	all := append(nodes, joiner)
	for _, u := range urls {
		if c := copiesAmong(u, all...); c > 1 {
			t.Fatalf("%s has %d copies after rebalance", u, c)
		}
	}
	// Accounting: every scanned document in exactly one bucket, and the
	// senders' transfers cover the joiner's share.
	transferred := 0
	for _, n := range nodes {
		rep, ok := n.LastMigration()
		if !ok {
			t.Fatalf("%s never ran a migration pass", n.ID())
		}
		if got := rep.Kept + rep.Transferred + rep.SkippedEA + rep.Refused + rep.Failed; got != rep.Scanned {
			t.Fatalf("%s accounting leak: %+v", n.ID(), rep)
		}
		if rep.Reason != "rebalance" || rep.Failed != 0 {
			t.Fatalf("%s migration report: %+v", n.ID(), rep)
		}
		transferred += rep.Transferred
	}
	if transferred < len(joinerOwned) {
		t.Fatalf("transferred %d docs, joiner owns %d", transferred, len(joinerOwned))
	}
}

// TestDrainHandoff: draining hands every resident copy to its owner on
// the ring without the drainer, the drainer keeps nothing new, and the
// accounting balances.
func TestDrainHandoff(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)
	nodes := startHashGroup(t, origin, "d0", "d1", "d2")

	const docs = 45
	urls := make([]string, docs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://drain.example.edu/doc-%d.html", i)
		if _, err := nodes[1].Request(urls[i], 1024); err != nil {
			t.Fatal(err)
		}
	}
	resident := nodes[0].Len()
	if resident == 0 {
		t.Fatal("test needs documents resident at the drainer")
	}

	rep := nodes[0].DrainHandoff()
	if !nodes[0].Draining() {
		t.Fatal("drain did not latch the draining state")
	}
	if got := rep.Kept + rep.Transferred + rep.SkippedEA + rep.Refused + rep.Failed; got != rep.Scanned || rep.Scanned != resident {
		t.Fatalf("drain accounting: %+v (resident %d)", rep, resident)
	}
	if rep.Reason != "drain" || rep.Transferred == 0 || rep.Refused != 0 || rep.Failed != 0 {
		t.Fatalf("drain report: %+v", rep)
	}
	if nodes[0].Len() != 0 {
		t.Fatalf("drainer still holds %d documents", nodes[0].Len())
	}
	// Every handed-off copy sits at its post-departure owner; never two
	// copies anywhere.
	shrunk, err := chash.New(0, "d1", "d2")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Node{"d1": nodes[1], "d2": nodes[2]}
	for _, u := range urls {
		if c := copiesAmong(u, nodes...); c > 1 {
			t.Fatalf("%s has %d copies after drain", u, c)
		}
		if home := byName[shrunk.Owner(u)]; !home.Contains(u) && copiesAmong(u, nodes...) != 0 {
			t.Fatalf("%s not at its post-drain home %s", u, shrunk.Owner(u))
		}
	}
	// A draining node refuses resolve-keeps and pushes from now on.
	url := urlWithOwners(t, shrunk, "d1")
	if stored, _, err := nodes[1].pushCopy(nodes[0].HTTPAddr(), cache.Document{URL: url, Size: 64}); err != nil || stored {
		t.Fatalf("draining node accepted a push (stored=%v, err=%v)", stored, err)
	}
	// Idempotent: a second drain scans an empty store.
	if rep := nodes[0].DrainHandoff(); rep.Scanned != 0 {
		t.Fatalf("second drain scanned %d", rep.Scanned)
	}
}

// TestDrainHandoffToLoadedPeers reaches the two migration results a
// handoff to an empty joiner never produces. Three hash-mode nodes on one
// injected clock fill and evict, so each advertises a finite expiration
// age; then the clock moves ten minutes, so every resident copy is idle
// far longer than any destination would keep it. A drain pushes to each
// destination until its piggybacked age is known and skips the rest on
// EA grounds; a second drain meets the first drainer as a destination,
// which refuses the push. Every pass balances its accounting.
func TestDrainHandoffToLoadedPeers(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)
	clk := newFakeClock()
	names := []string{"e0", "e1", "e2"}
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = startChaosNode(t, Config{
			ID: name, Scheme: core.EA{}, OriginAddr: origin.Addr(),
			Location: resolve.LocateHash, HashName: name,
			Store: newStore(t, 16<<10), Now: clk.Now,
		})
	}
	meshHash(nodes, names)
	for _, n := range nodes {
		waitSettled(t, n, "startup")
	}
	for i := 0; i < 120; i++ { // each home receives about 40 1KB documents into 16 slots
		clk.Advance(time.Second)
		if _, err := nodes[i%3].Request(fmt.Sprintf("http://loaded.example.edu/doc-%d.html", i), 1024); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if n.Len() == 0 || n.ExpirationAge() == cache.NoContention {
			t.Fatalf("%s is not loaded: %d documents, age %v", n.ID(), n.Len(), n.ExpirationAge())
		}
	}
	clk.Advance(10 * time.Minute)

	check := func(n *Node, resident int, rep MigrationReport) {
		t.Helper()
		t.Logf("%s drain: %+v", n.ID(), rep)
		if got := rep.Kept + rep.Transferred + rep.SkippedEA + rep.Refused + rep.Failed; got != rep.Scanned || rep.Scanned != resident {
			t.Fatalf("%s drain accounting: %+v (resident %d)", n.ID(), rep, resident)
		}
		if rep.SkippedEA == 0 || rep.Failed != 0 {
			t.Fatalf("%s drain: %+v, want EA skips and no failures", n.ID(), rep)
		}
	}
	resident := nodes[2].Len()
	check(nodes[2], resident, nodes[2].DrainHandoff())
	resident = nodes[0].Len()
	rep := nodes[0].DrainHandoff()
	check(nodes[0], resident, rep)
	if rep.Refused == 0 {
		t.Fatalf("e0 drain: %+v, want the draining e2 to refuse a push", rep)
	}
}

// TestPushAcceptance pins mayAcceptPush's ring rule: the receiver stores
// a pushed copy iff it sits within the first two raw ring owners.
func TestPushAcceptance(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)
	nodes := startHashGroup(t, origin, "q0", "q1", "q2")
	for _, n := range nodes { // a rebalance pass still due would move q2's copy to q1
		waitSettled(t, n, "startup")
	}
	ring, err := chash.New(0, "q0", "q1", "q2")
	if err != nil {
		t.Fatal(err)
	}

	// Owner chain q1,q2: q1 (owner) and q2 (second) accept, q0 refuses.
	url := urlWithOwners(t, ring, "q1", "q2")
	doc := cache.Document{URL: url, Size: 512}
	for i, want := range map[int]bool{1: true, 2: true, 0: false} {
		stored, _, err := nodes[(i+1)%3].pushCopy(nodes[i].HTTPAddr(), doc)
		if err != nil {
			t.Fatalf("push to %s: %v", nodes[i].ID(), err)
		}
		if stored != want {
			t.Fatalf("push to %s stored=%v, want %v", nodes[i].ID(), stored, want)
		}
		if nodes[i].Contains(url) != want {
			t.Fatalf("%s Contains=%v after push, want %v", nodes[i].ID(), nodes[i].Contains(url), want)
		}
		if want {
			// Clean up so the next acceptor starts empty.
			nodes[i].store.Remove(url)
		}
	}
}

// TestStaleRingRequesterDoesNotMintDuplicates: a responder asked to
// resolve by a requester with a different ring view relays the body but
// keeps nothing — the fingerprint mismatch is the evidence of staleness.
func TestStaleRingRequesterDoesNotMintDuplicates(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)
	nodes := startHashGroup(t, origin, "s0", "s1")

	// s0 learns about a third member; s1 does not. Their fingerprints now
	// differ, so a resolve from s0 through s1 must not be kept at s1.
	if err := nodes[0].AddPeer(Peer{ICP: udpAddr(t, "127.0.0.1:19031"), HTTP: deadTCPAddr(t), Name: "s2"}); err != nil {
		t.Fatal(err)
	}
	ring, err := chash.New(0, "s0", "s1")
	if err != nil {
		t.Fatal(err)
	}
	// Homed at s1 under BOTH views that route there (s1 before s0), so
	// s0 resolves through s1 regardless of the skew.
	grown, err := chash.New(0, "s0", "s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	var url string
	for i := 0; ; i++ {
		u := fmt.Sprintf("http://stale.example.edu/doc-%d.html", i)
		if ring.Owner(u) == "s1" && grown.Owner(u) == "s1" {
			url = u
			break
		}
	}
	res, err := nodes[0].Request(url, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss || res.Stored {
		t.Fatalf("skewed resolve = %+v, want un-stored miss", res)
	}
	if nodes[1].Contains(url) {
		t.Fatal("stale-view exchange minted a copy at the responder")
	}
	// Matching views: the same resolve is kept.
	if err := nodes[1].AddPeer(Peer{ICP: udpAddr(t, "127.0.0.1:19031"), HTTP: nodes[0].peerList()[1].HTTP, Name: "s2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Request(url, 1024); err != nil {
		t.Fatal(err)
	}
	if !nodes[1].Contains(url) {
		t.Fatal("matching-view resolve was not kept at the home")
	}
}

// TestAdminMembershipAPI drives a join → leave → drain cycle through the
// HTTP handlers the admin surface mounts.
func TestAdminMembershipAPI(t *testing.T) {
	checkGoroutines(t)
	origin := startOrigin(t)
	n := startChaosNode(t, Config{
		ID: "a0", Scheme: core.EA{}, OriginAddr: origin.Addr(),
		Location: resolve.LocateHash, HashName: "a0",
	})
	mux := http.NewServeMux()
	for pattern, h := range n.AdminRoutes() {
		mux.Handle(pattern, h)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		k, _ := resp.Body.Read(buf[:])
		return resp, buf[:k]
	}

	// Join.
	resp, body := post("/admin/peers/join", `{"icp":"127.0.0.1:19041","http":"127.0.0.1:19141","name":"a1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %s", resp.StatusCode, body)
	}
	var view membershipView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Self != "a0" || view.Epoch != 1 || len(view.Members) != 1 || view.Members[0].Name != "a1" {
		t.Fatalf("join view: %+v", view)
	}
	// Rejected join: duplicate name.
	if resp, body = post("/admin/peers/join", `{"icp":"127.0.0.1:19042","http":"127.0.0.1:19142","name":"a1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate join: %d %s", resp.StatusCode, body)
	}
	// Rejected join: a fetch address that does not resolve, here one with
	// a newline, which would otherwise become a dial target and a label.
	if resp, body = post("/admin/peers/join", `{"icp":"127.0.0.1:19043","http":"127.0.0.1:191\n43","name":"a2"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("join with a newline in its fetch address: %d %s", resp.StatusCode, body)
	}
	if v := n.currentView(); v.Epoch != 1 || len(v.Members) != 1 {
		t.Fatalf("a refused join changed the view: %+v", v)
	}
	// GET table.
	getResp, err := http.Get(srv.URL + "/admin/peers")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /admin/peers: %d", getResp.StatusCode)
	}
	// Method guard.
	mguard, err := http.Get(srv.URL + "/admin/peers/join")
	if err != nil {
		t.Fatal(err)
	}
	mguard.Body.Close()
	if mguard.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET join: %d", mguard.StatusCode)
	}
	// Leave by name; second leave 404s.
	if resp, body = post("/admin/peers/leave", `{"peer":"a1"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d %s", resp.StatusCode, body)
	}
	if resp, _ = post("/admin/peers/leave", `{"peer":"a1"}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double leave: %d", resp.StatusCode)
	}
	// Drain returns the accounting report and latches the state.
	resp, body = post("/admin/peers/drain", ``)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d %s", resp.StatusCode, body)
	}
	var rep MigrationReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Reason != "drain" || !n.Draining() {
		t.Fatalf("drain report %+v, draining=%v", rep, n.Draining())
	}
}
