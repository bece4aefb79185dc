package netnode

// Chaos tests: a live cooperative group under injected faults — dead
// peers, lost datagrams, peers crashing mid-fetch, stalled origins. Each
// test asserts that requests still complete with the right degraded
// outcome, that the degradation is visible in the robustness counters,
// and that no goroutines leak. Guarded by -short so tier-1 stays fast.

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"eacache/internal/core"
	"eacache/internal/faults"
	"eacache/internal/icp"
	"eacache/internal/metrics"
)

// checkGoroutines fails the test if goroutines outlive the test's own
// cleanups. Call it first so its cleanup runs after every node's Close.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<17)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}

// startChaosNode starts a node from a full Config with test cleanups.
func startChaosNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	if cfg.ICPAddr == "" {
		cfg.ICPAddr = "127.0.0.1:0"
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if cfg.Store == nil {
		cfg.Store = newStore(t, 1<<20)
	}
	if cfg.Scheme == nil {
		cfg.Scheme = core.AdHoc{}
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// deadTCPAddr returns a loopback TCP address that refuses connections.
func deadTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// fakeHitPeer is a peer whose ICP side answers HIT for every URL and whose
// fetch side is the given TCP address — a liar, a crasher, or a corpse,
// depending on what listens there.
func fakeHitPeer(t *testing.T, httpAddr string) Peer {
	t.Helper()
	srv, err := icp.NewServer("127.0.0.1:0", icp.HandlerFunc(func(string) icp.Opcode { return icp.OpHit }), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return Peer{ICP: srv.Addr(), HTTP: httpAddr}
}

// TestBreakerAvoidsICPTimeoutOnceOpen is the headline scenario: one of
// four peers is hard down. The first few misses pay the full ICP timeout
// (the dead peer is silent), the breaker opens, and from then on misses
// resolve as fast as the live peers answer — the dead neighbour no longer
// taxes every request.
func TestBreakerAvoidsICPTimeoutOnceOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	origin := startOrigin(t)

	const icpTimeout = 400 * time.Millisecond
	mk := func(id string) *Node {
		return startChaosNode(t, Config{
			ID:         id,
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
			ICPTimeout: icpTimeout,
			DeadAfter:  2,
		})
	}
	nodes := []*Node{mk("n0"), mk("n1"), mk("n2"), mk("n3")}
	mesh(nodes...)

	// Hard-down: n3 dies.
	deadHTTP := nodes[3].HTTPAddr()
	if err := nodes[3].Close(); err != nil {
		t.Fatal(err)
	}

	// Warm-up misses: each timed-out fan-out is one strike against the
	// silent peer; two strikes open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := nodes[0].Request(fmt.Sprintf("http://warm/doc%d", i), 1000); err != nil {
			t.Fatalf("warm-up request %d: %v", i, err)
		}
	}
	opened := false
	for _, m := range nodes[0].Members() {
		if m.HTTP == deadHTTP && m.State == "dead" {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("breaker did not open for the dead peer; members = %+v", nodes[0].Members())
	}
	if rb := nodes[0].Robustness(); rb.BreakerOpens == 0 || rb.PeerFailures == 0 {
		t.Fatalf("robustness = %+v, want breaker open + peer failures recorded", rb)
	}

	// Steady state: misses no longer pay the ICP timeout, because the
	// dead peer is excluded and every live peer answers promptly.
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := nodes[0].Request(fmt.Sprintf("http://steady/doc%d", i), 1000)
		if err != nil {
			t.Fatalf("steady-state request %d: %v", i, err)
		}
		if res.Outcome != metrics.Miss {
			t.Fatalf("steady-state request %d outcome = %v, want miss", i, res.Outcome)
		}
		if elapsed := time.Since(start); elapsed >= icpTimeout/2 {
			t.Fatalf("steady-state request %d took %v, still paying the %v ICP timeout", i, elapsed, icpTimeout)
		}
	}

	// Cooperation among the surviving peers still works: n0 cached
	// doc0 above, so n1 gets a remote hit from it (EA does not
	// replicate on a cold tie, so no local copy either way).
	res, err := nodes[1].Request("http://steady/doc0", 1000)
	if err != nil || res.Outcome != metrics.RemoteHit {
		t.Fatalf("survivor cooperative hit = %+v, %v", res, err)
	}
}

// TestDeadPeerIsProbedOutOfBand: once a peer's breaker opens, no client
// request waits on it again — not even one that would double as a probe —
// and the sweeper alone finds it back: revived on its old addresses, it
// is healthy within a few ReadmitProbe periods with no request sent. The
// grace window is long, so the peer is dead but never ejected.
func TestDeadPeerIsProbedOutOfBand(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	origin := startOrigin(t)

	const (
		icpTimeout   = 800 * time.Millisecond
		readmitProbe = 100 * time.Millisecond
	)
	mk := func(id, icpAddr, httpAddr string) *Node {
		return startChaosNode(t, Config{
			ID: id, ICPAddr: icpAddr, HTTPAddr: httpAddr,
			Scheme: core.EA{}, OriginAddr: origin.Addr(),
			ICPTimeout:   icpTimeout,
			EjectAfter:   time.Minute,
			ReadmitProbe: readmitProbe,
		})
	}
	nodes := []*Node{mk("n0", "", ""), mk("n1", "", ""), mk("n2", "", "")}
	mesh(nodes...)
	deadICP, deadHTTP := nodes[2].ICPAddr().String(), nodes[2].HTTPAddr()
	if err := nodes[2].Close(); err != nil {
		t.Fatal(err)
	}
	state := func() string { return memberRow(t, nodes[0], deadHTTP).State }

	// Each timed-out fan-out is one strike against the silent peer; three
	// open its breaker.
	for i := 0; state() != "dead"; i++ {
		if i == 6 {
			t.Fatalf("breaker still %s after %d timed-out fan-outs", state(), i)
		}
		if _, err := nodes[0].Request(fmt.Sprintf("http://warm/doc%d", i), 1000); err != nil {
			t.Fatal(err)
		}
	}

	// Several probe periods of traffic: every miss skips the dead peer.
	for i, end := 0, time.Now().Add(10*readmitProbe); time.Now().Before(end); i++ {
		start := time.Now()
		if _, err := nodes[0].Request(fmt.Sprintf("http://steady/doc%d", i), 1000); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed >= icpTimeout/2 {
			t.Fatalf("request %d took %v with the breaker open: it waited on the dead peer", i, elapsed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m := memberRow(t, nodes[0], deadHTTP); m.State != "dead" || m.Ejected {
		t.Fatalf("the closed peer is %+v, want dead and not ejected inside a one-minute grace window", m)
	}

	// Revived on its old addresses, the peer is found by the probe alone.
	mk("n2", deadICP, deadHTTP)
	waitFor(t, 10*readmitProbe, "the revived peer healthy with no request sent", func() bool {
		return state() == "healthy"
	})
	if rb := nodes[0].Robustness(); rb.BreakerOpens != 1 || rb.BreakerCloses != 1 || rb.Ejections != 0 {
		t.Fatalf("robustness = %+v, want one open, one close, no ejection", rb)
	}
}

// TestRemoteHitFetchFailureFallsBackToOrigin: a neighbour answers HIT but
// its fetch port refuses connections. The request must degrade to the
// origin and still succeed, with the failure, fallback, and breaker
// transition all recorded.
func TestRemoteHitFetchFailureFallsBackToOrigin(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	origin := startOrigin(t)

	n := startChaosNode(t, Config{
		ID:         "n",
		Scheme:     core.AdHoc{},
		OriginAddr: origin.Addr(),
		ICPTimeout: 500 * time.Millisecond,
		DeadAfter:  1,
	})
	liar := fakeHitPeer(t, deadTCPAddr(t))
	n.SetPeers([]Peer{liar})

	res, err := n.Request("http://x/doc", 2048)
	if err != nil {
		t.Fatalf("request failed instead of degrading to origin: %v", err)
	}
	if res.Outcome != metrics.Miss || res.Size != 2048 {
		t.Fatalf("res = %+v, want an origin miss", res)
	}
	if origin.Fetches() != 1 {
		t.Fatalf("origin fetches = %d, want 1", origin.Fetches())
	}
	rb := n.Robustness()
	if rb.PeerFailures == 0 || rb.Fallbacks == 0 {
		t.Fatalf("robustness = %+v, want peer failure + fallback recorded", rb)
	}
	if rb.BreakerOpens == 0 {
		t.Fatalf("robustness = %+v, want breaker open after the failed fetch", rb)
	}
	// With the breaker open the liar is skipped entirely: no ICP wait,
	// straight to origin.
	start := time.Now()
	if _, err := n.Request("http://x/doc2", 1024); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("request with open breaker took %v, want near-instant origin path", elapsed)
	}
}

// TestPeerCrashMidFetchRetriesNextResponder: two neighbours answer HIT;
// the one that crashes mid-body must not fail the request — the fetch is
// retried against the other copy holder.
func TestPeerCrashMidFetchRetriesNextResponder(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	origin := startOrigin(t)

	// The crasher: advertises HIT, then sends a response head promising
	// 8KB and dies after 100 bytes.
	crashLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = crashLn.Close() })
	go func() {
		for {
			conn, err := crashLn.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				_, _ = c.Read(buf) // swallow the request head
				_, _ = fmt.Fprintf(c, "EAC/1.0 200 OK\r\nX-Cache-Expiration-Age: 0\r\nContent-Length: 8192\r\n\r\n")
				_, _ = c.Write(make([]byte, 100)) // die mid-body
			}(conn)
		}
	}()
	crasher := fakeHitPeer(t, crashLn.Addr().String())

	// The honest copy holder: a real node seeded with the document.
	holder := startChaosNode(t, Config{ID: "holder", OriginAddr: origin.Addr()})
	if _, err := holder.Request("http://x/doc", 4096); err != nil {
		t.Fatal(err)
	}

	n := startChaosNode(t, Config{
		ID:         "n",
		Scheme:     core.AdHoc{},
		OriginAddr: origin.Addr(),
		ICPTimeout: 500 * time.Millisecond,
	})
	n.SetPeers([]Peer{crasher, {ICP: holder.ICPAddr(), HTTP: holder.HTTPAddr()}})

	res, err := n.Request("http://x/doc", 4096)
	if err != nil {
		t.Fatalf("request failed instead of retrying the other copy holder: %v", err)
	}
	// Whichever HIT arrived first, only the honest holder can complete
	// the fetch; a crasher-first ordering exercises the retry, a
	// holder-first ordering never touches the crasher. Either way the
	// client sees a remote hit.
	if res.Outcome != metrics.RemoteHit || res.Responder != holder.HTTPAddr() {
		t.Fatalf("res = %+v, want remote hit from the honest holder", res)
	}
	if origin.Fetches() != 1 {
		t.Fatalf("origin fetches = %d, want only the seeding fetch", origin.Fetches())
	}
}

// TestUDPLossGroupStillCompletes: a 4-node group with ~30% datagram loss
// on every query socket keeps answering every request; cooperation
// degrades (lost replies look like misses) but never errors.
func TestUDPLossGroupStillCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	origin := startOrigin(t)

	nodes := make([]*Node, 4)
	for i := range nodes {
		inj, err := faults.New(faults.Config{Seed: int64(i + 1), UDPDropRate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = startChaosNode(t, Config{
			ID:         fmt.Sprintf("n%d", i),
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
			ICPTimeout: 100 * time.Millisecond,
			Faults:     inj,
			// Peers will look flaky; probe quickly so nobody is
			// excluded for long.
			ReadmitProbe: 50 * time.Millisecond,
		})
	}
	mesh(nodes...)

	var counters metrics.Counters
	for i := 0; i < 160; i++ {
		node := nodes[i%len(nodes)]
		url := fmt.Sprintf("http://lossy/doc%02d", i%16)
		res, err := node.Request(url, 1200)
		if err != nil {
			t.Fatalf("request %d under 30%% UDP loss: %v", i, err)
		}
		counters.Record(res.Outcome, res.Size)
	}
	if snap := counters.Snapshot(); snap.Requests != 160 || snap.Hits() == 0 {
		t.Fatalf("counters = %+v, want all requests served with some hits", snap)
	}
}

// TestStalledOriginTimesOutCleanly: the origin accepts and then never
// speaks. The request must fail within the configured budget (dial +
// fetch timeouts times the retry count), not hang, and not leak the
// fetching goroutine.
func TestStalledOriginTimesOutCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)

	stalled, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stalled.Close() })
	go func() {
		for {
			conn, err := stalled.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, say nothing
		}
	}()

	n := startChaosNode(t, Config{
		ID:           "n",
		OriginAddr:   stalled.Addr().String(),
		DialTimeout:  200 * time.Millisecond,
		FetchTimeout: 300 * time.Millisecond,
		// Default FetchAttempts (2): one retry, then give up.
	})

	start := time.Now()
	_, err = n.Request("http://x/doc", 1000)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("request against a stalled origin succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stalled-origin request took %v, want bounded by the timeout budget", elapsed)
	}
	if rb := n.Robustness(); rb.Retries == 0 {
		t.Fatalf("robustness = %+v, want the retry recorded", rb)
	}
}

// TestConfigTimeoutValidation: the new Config fields reject negatives and
// default the zeros.
func TestConfigTimeoutValidation(t *testing.T) {
	store := newStore(t, 1<<20)
	bad := []Config{
		{Store: store, Scheme: core.EA{}, DialTimeout: -time.Second},
		{Store: store, Scheme: core.EA{}, FetchTimeout: -time.Second},
		{Store: store, Scheme: core.EA{}, FetchAttempts: -1},
	}
	for i, cfg := range bad {
		cfg.ICPAddr, cfg.HTTPAddr = "127.0.0.1:0", "127.0.0.1:0"
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}

	n := startChaosNode(t, Config{ID: "n"})
	if n.dialTimeout != DefaultDialTimeout || n.fetchTimeout != DefaultFetchTimeout || n.fetchAttempts != DefaultFetchAttempts {
		t.Fatalf("defaults = %v/%v/%d", n.dialTimeout, n.fetchTimeout, n.fetchAttempts)
	}
}

// TestChaosFlaggedNodeServes: a node with an active injector on every
// socket still serves a basic workload (sanity for proxyd's -chaos mode).
func TestChaosFlaggedNodeServes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	origin := startOrigin(t)
	inj, err := faults.New(faults.Config{Seed: 7, UDPDropRate: 0.2, TCPByteDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	n := startChaosNode(t, Config{ID: "n", OriginAddr: origin.Addr(), Faults: inj})
	for i := 0; i < 10; i++ {
		if _, err := n.Request(fmt.Sprintf("http://chaos/%d", i%3), 800); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if inj.Stats() == (faults.Stats{}) {
		t.Log("note: no faults fired in this run (all sockets, low rates)")
	}
}
