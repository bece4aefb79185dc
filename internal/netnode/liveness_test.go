package netnode

// Unit tests of the per-member liveness record (membership.go): the
// breaker thresholds, its timestamps, its lifetime across membership
// changes, and its reads on the request path.

import (
	"net"
	"sync"
	"testing"
	"time"

	"eacache/internal/obs"
	"eacache/internal/race"
)

func livePeers(n int) []Peer {
	peers := make([]Peer, n)
	for i := range peers {
		a := udp(net.IP{127, 0, 0, 1}, 6001+i)
		peers[i] = Peer{ICP: a, HTTP: a.String()}
	}
	return peers
}

// memberRow returns addr's row of the membership table.
func memberRow(t *testing.T, n *Node, addr string) MemberStatus {
	t.Helper()
	for _, m := range n.Members() {
		if m.HTTP == addr {
			return m
		}
	}
	t.Fatalf("%s is not a member", addr)
	return MemberStatus{}
}

func TestNewMemberIsHealthy(t *testing.T) {
	peers := livePeers(1)
	n := bareNode(peers)
	if m := memberRow(t, n, peers[0].HTTP); m.State != "healthy" || m.Failures != 0 || m.StateSince != "" {
		t.Fatalf("new member = %+v", m)
	}
	if n.liveness(peers[0].HTTP).dead() {
		t.Fatal("new member dead")
	}
	// A stranger has no record: never dead, and reports about it vanish.
	n.reportFailure("stranger:1")
	n.reportFailure("stranger:1")
	n.reportFailure("stranger:1")
	if n.liveness("stranger:1") != nil || n.liveness("stranger:1").dead() {
		t.Fatal("a non-member grew a record")
	}
	if rb := n.Robustness(); rb.BreakerOpens != 0 {
		t.Fatalf("breaker opens = %d for a non-member", rb.BreakerOpens)
	}
}

func TestLivenessOpensAfterDeadAfterFailures(t *testing.T) {
	peers := livePeers(1)
	addr := peers[0].HTTP
	n := bareNode(peers)

	n.reportFailure(addr)
	if m := memberRow(t, n, addr); m.State != "suspect" || m.Failures != 1 {
		t.Fatalf("after 1 failure: %+v, want suspect", m)
	}
	if n.liveness(addr).dead() {
		t.Fatal("suspect peer left out of location")
	}
	n.reportFailure(addr)
	n.reportFailure(addr)
	if m := memberRow(t, n, addr); m.State != "dead" || m.Failures != DefaultDeadAfter {
		t.Fatalf("after %d failures: %+v, want dead", DefaultDeadAfter, m)
	}
	if !n.liveness(addr).dead() {
		t.Fatal("dead peer still located")
	}
	n.reportFailure(addr)
	if rb := n.Robustness(); rb.BreakerOpens != 1 || rb.BreakerCloses != 0 {
		t.Fatalf("robustness = %+v, want exactly one open", rb)
	}
	n.reportSuccess(addr)
	if rb := n.Robustness(); rb.BreakerCloses != 1 {
		t.Fatalf("robustness = %+v, want one close", rb)
	}
}

func TestLivenessSuccessResetsFailures(t *testing.T) {
	peers := livePeers(1)
	addr := peers[0].HTTP
	n := bareNode(peers)
	n.reportFailure(addr)
	n.reportFailure(addr)
	n.reportSuccess(addr)
	if m := memberRow(t, n, addr); m.State != "healthy" || m.Failures != 0 {
		t.Fatalf("after success: %+v, want healthy", m)
	}
	n.reportFailure(addr)
	n.reportFailure(addr)
	if n.liveness(addr).dead() {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

// TestLivenessStateSince: a record is stamped when it enters a state,
// not by a repeat failure in the same state — the ejection grace window
// is measured from the first entry into dead.
func TestLivenessStateSince(t *testing.T) {
	var l liveness
	stamp := func(report func()) (before, after time.Time) {
		before = time.Now()
		report()
		return before, time.Now()
	}
	since := func() time.Time { _, _, s := l.status(); return s }

	b, a := stamp(func() { l.report(false, 2) })
	if s := since(); s.Before(b) || s.After(a) {
		t.Fatalf("suspect since %v, want within [%v, %v]", s, b, a)
	}
	b, a = stamp(func() { l.report(false, 2) })
	deadAt := since()
	if deadAt.Before(b) || deadAt.After(a) {
		t.Fatalf("dead since %v, want within [%v, %v]", deadAt, b, a)
	}
	time.Sleep(2 * time.Millisecond)
	if from, to := l.report(false, 2); from != peerDead || to != peerDead {
		t.Fatalf("repeat failure moved %d -> %d", from, to)
	}
	if s := since(); !s.Equal(deadAt) {
		t.Fatalf("a repeat failure moved since from %v to %v", deadAt, s)
	}
	b, a = stamp(func() { l.report(true, 2) })
	if state, failures, s := l.status(); state != peerHealthy || failures != 0 || s.Before(b) || s.After(a) {
		t.Fatalf("after recovery: state %d, %d failures, since %v", state, failures, s)
	}
}

// TestLivenessDroppedOnRemovePeer: a record lives exactly as long as its
// member — kept by every publish, SetPeers included, dropped when the
// member leaves, and fresh when it joins again.
func TestLivenessDroppedOnRemovePeer(t *testing.T) {
	peers := livePeers(2)
	gone, kept := peers[0].HTTP, peers[1].HTTP
	n := bareNode(peers)
	for i := 0; i < DefaultDeadAfter; i++ {
		n.reportFailure(gone)
		n.reportFailure(kept)
	}
	n.SetPeers(peers) // a publish with the same members
	if !n.liveness(gone).dead() || !n.liveness(kept).dead() {
		t.Fatal("a publish reset a record")
	}
	if err := n.RemovePeer(gone); err != nil {
		t.Fatal(err)
	}
	if n.liveness(gone) != nil {
		t.Fatal("a departed member kept its record")
	}
	if !n.liveness(kept).dead() {
		t.Fatal("a staying member lost its record")
	}
	if err := n.AddPeer(peers[0]); err != nil {
		t.Fatal(err)
	}
	if m := memberRow(t, n, gone); m.State != "healthy" || m.Failures != 0 {
		t.Fatalf("rejoined member = %+v, want a fresh record", m)
	}
	n.SetPeers(peers[:1])
	if n.liveness(kept) != nil {
		t.Fatal("SetPeers kept the record of a member it dropped")
	}
}

// TestMembersMatchLiveness: the membership table reads the records, and
// so does eac_peer_breaker_state.
func TestMembersMatchLiveness(t *testing.T) {
	peers := livePeers(3)
	n := bareNode(peers)
	n.reportFailure(peers[1].HTTP)
	for i := 0; i < DefaultDeadAfter; i++ {
		n.reportFailure(peers[2].HTTP)
	}
	got := map[string]float64{}
	n.peerStates(func(l obs.Labels, v float64) { got[l["peer"]] = v })
	for _, m := range n.Members() {
		state, failures, since := n.liveness(m.HTTP).status()
		if m.State != peerStateNames[state] || m.Failures != failures || (m.StateSince == "") != since.IsZero() {
			t.Fatalf("row %+v, record state %d, %d failures, since %v", m, state, failures, since)
		}
		if got[m.HTTP] != float64(state) {
			t.Fatalf("eac_peer_breaker_state{peer=%q} = %v, record %d", m.HTTP, got[m.HTTP], state)
		}
	}
}

// TestLivenessConcurrentReports races reports against the request path's
// reads and the table's; -race checks the record's discipline.
func TestLivenessConcurrentReports(t *testing.T) {
	peers := livePeers(1)
	addr := peers[0].HTTP
	n := bareNode(peers)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if j%2 == 0 {
					n.reportFailure(addr)
				} else {
					n.reportSuccess(addr)
				}
				n.liveness(addr).dead()
				n.Members()
			}
		}()
	}
	wg.Wait()
	n.reportSuccess(addr)
	if m := memberRow(t, n, addr); m.State != "healthy" || m.Failures != 0 {
		t.Fatalf("after a final success: %+v", m)
	}
	if rb := n.Robustness(); rb.BreakerOpens != rb.BreakerCloses {
		t.Fatalf("opens %d != closes %d after ending healthy", rb.BreakerOpens, rb.BreakerCloses)
	}
}

// TestLivenessReadAllocatesNothing: the request path's check of a peer
// costs one map lookup and one atomic load.
func TestLivenessReadAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	peers := livePeers(3)
	n := bareNode(peers)
	if got := testing.AllocsPerRun(200, func() { _ = n.liveness(peers[1].HTTP).dead() }); got != 0 {
		t.Fatalf("a liveness read: %.1f allocs", got)
	}
}
