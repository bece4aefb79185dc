package netnode

import (
	"fmt"
	"net"
	"reflect"
	"testing"

	"eacache/internal/core"
	"eacache/internal/icp"
	"eacache/internal/race"
)

// legacyRecordFanout is recordFanout as it stood before the alloc-free
// rewrite: peers and replies matched through maps keyed by the addresses'
// string forms. Kept as the reference the equivalence test compares to.
func (n *Node) legacyRecordFanout(active []Peer, res icp.Result) {
	byICP := make(map[string]Peer, len(active))
	for _, p := range active {
		byICP[p.ICP.String()] = p
	}
	heard := make(map[string]bool, len(res.Answered))
	for _, a := range res.Answered {
		if p, ok := byICP[a.String()]; ok {
			heard[p.HTTP] = true
			n.reportSuccess(p.HTTP)
		}
	}
	for _, a := range res.SendFailed {
		if p, ok := byICP[a.String()]; ok {
			heard[p.HTTP] = true
			n.reportFailure(p.HTTP)
			n.om.peerFailures[pfICPSend].Inc()
		}
	}
	if res.TimedOut {
		for _, p := range active {
			if !heard[p.HTTP] {
				n.reportFailure(p.HTTP)
				n.om.peerFailures[pfICPSilent].Inc()
			}
		}
	}
}

// bareNode is a Node with just the state recordFanout touches: the
// members' liveness records and the robustness counters.
func bareNode(peers []Peer) *Node {
	n := &Node{om: new(nodeObs), deadAfter: DefaultDeadAfter}
	n.SetPeers(peers)
	return n
}

// breakerRows lists each member's breaker state and consecutive failures,
// the part of a liveness record two nodes fed the same evidence share
// (their transition times differ by the clock).
func breakerRows(n *Node) (rows []string) {
	for _, m := range n.Members() {
		rows = append(rows, fmt.Sprintf("%s %s %d", m.HTTP, m.State, m.Failures))
	}
	return rows
}

func udp(ip net.IP, port int) *net.UDPAddr { return &net.UDPAddr{IP: ip, Port: port} }

// TestRecordFanoutEquivalence drives the rewrite and the map-based
// original through the same fan-out results and demands identical breaker
// state and robustness counters after every step.
func TestRecordFanoutEquivalence(t *testing.T) {
	v4 := func(port int) *net.UDPAddr { return udp(net.IP{127, 0, 0, 1}, port) }
	mapped := func(port int) *net.UDPAddr { return udp(net.IPv4(127, 0, 0, 1), port) } // 16-byte form
	active := []Peer{
		{ICP: v4(4001), HTTP: "a:1"},
		{ICP: mapped(4002), HTTP: "b:1"},
		{ICP: udp(net.ParseIP("::1"), 4003), HTTP: "c:1"},
	}
	stranger := v4(4999)

	steps := []struct {
		name string
		res  icp.Result
		// wantFailures is each active peer's consecutive-failure count
		// after the step, in order.
		wantFailures [3]int
		wantPeerFail int64
	}{
		{name: "all answer, sources in the peers' own forms",
			res: icp.Result{Answered: []*net.UDPAddr{active[0].ICP, active[1].ICP, active[2].ICP}}},
		{name: "IPv4 peer answers as v6-mapped, mapped peer answers as IPv4, plus a duplicate",
			res: icp.Result{Answered: []*net.UDPAddr{mapped(4001), v4(4002), v4(4002)}}},
		{name: "responder not in active is ignored",
			res: icp.Result{Answered: []*net.UDPAddr{stranger}}},
		{name: "early hit: silence is no evidence without a timeout",
			res: icp.Result{Hit: true, Answered: []*net.UDPAddr{v4(4001)}}},
		{name: "send failure counts against that neighbour only",
			res:          icp.Result{Answered: []*net.UDPAddr{v4(4001)}, SendFailed: []*net.UDPAddr{active[2].ICP}},
			wantFailures: [3]int{0, 0, 1}, wantPeerFail: 1},
		{name: "timed out: each silent peer fails exactly once, the answered one not at all",
			res:          icp.Result{TimedOut: true, Answered: []*net.UDPAddr{mapped(4001), stranger}},
			wantFailures: [3]int{0, 1, 2}, wantPeerFail: 3},
		{name: "timed out with a send failure: the unsendable peer is not failed twice",
			res:          icp.Result{TimedOut: true, SendFailed: []*net.UDPAddr{v4(4002)}},
			wantFailures: [3]int{1, 2, 3}, wantPeerFail: 6},
		{name: "a reply closes the breaker again",
			res:          icp.Result{Answered: []*net.UDPAddr{udp(net.ParseIP("::1"), 4003)}},
			wantFailures: [3]int{1, 2, 0}, wantPeerFail: 6},
	}

	got, want := bareNode(active), bareNode(active)
	for _, st := range steps {
		got.recordFanout(active, st.res)
		want.legacyRecordFanout(active, st.res)
		if g, w := breakerRows(got), breakerRows(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: breaker state %+v, map-based original %+v", st.name, g, w)
		}
		if g, w := got.Robustness(), want.Robustness(); g != w {
			t.Fatalf("%s: robustness %+v, map-based original %+v", st.name, g, w)
		}
		for i, m := range got.Members() {
			if m.Failures != st.wantFailures[i] {
				t.Errorf("%s: peer %s has %d consecutive failures, want %d", st.name, m.HTTP, m.Failures, st.wantFailures[i])
			}
		}
		if f := got.Robustness().PeerFailures; f != st.wantPeerFail {
			t.Errorf("%s: PeerFailures = %d, want %d", st.name, f, st.wantPeerFail)
		}
	}
	if s := got.Members()[2].State; s != "healthy" {
		t.Fatalf("peer c ended %v", s)
	}

	// Past the stack-resident 16 the bookkeeping moves to the heap and
	// must keep indexing by position.
	var many []Peer
	for i := 0; i < 40; i++ {
		many = append(many, Peer{ICP: v4(5000 + i), HTTP: v4(5000 + i).String()})
	}
	got, want = bareNode(many), bareNode(many)
	res := icp.Result{TimedOut: true, Answered: []*net.UDPAddr{v4(5039), v4(5017)}, SendFailed: []*net.UDPAddr{v4(5000)}}
	got.recordFanout(many, res)
	want.legacyRecordFanout(many, res)
	if g, w := breakerRows(got), breakerRows(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("40 peers: breaker state diverged:\n%+v\n%+v", g, w)
	}
	if g := got.Robustness().PeerFailures; g != 38 {
		t.Fatalf("40 peers, 2 answered: PeerFailures = %d, want 38", g)
	}
}

func TestRecordFanoutAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	active := []Peer{
		{ICP: udp(net.IP{127, 0, 0, 1}, 4001), HTTP: "a:1"},
		{ICP: udp(net.IP{127, 0, 0, 1}, 4002), HTTP: "b:1"},
		{ICP: udp(net.IP{127, 0, 0, 1}, 4003), HTTP: "c:1"},
	}
	n := bareNode(active)
	res := icp.Result{Answered: []*net.UDPAddr{active[2].ICP, active[0].ICP, active[1].ICP}}
	if got := testing.AllocsPerRun(200, func() { n.recordFanout(active, res) }); got != 0 {
		t.Fatalf("recordFanout on a 3-peer all-answered result: %.1f allocs per call", got)
	}
}

// TestPeerSnapshotCarriesICPAddrs: every published snapshot pairs its
// peers with their ICP addresses index for index — the slice a healthy
// group's fan-out sends to without rebuilding it.
func TestPeerSnapshotCarriesICPAddrs(t *testing.T) {
	n := startNode(t, "n0", 1<<20, core.AdHoc{}, "")
	check := func(when string, want int) {
		t.Helper()
		set := n.peers.Load()
		if len(set.list) != want || len(set.icp) != want {
			t.Fatalf("%s: %d peers, %d ICP addresses, want %d of each", when, len(set.list), len(set.icp), want)
		}
		for i, p := range set.list {
			if set.icp[i] != p.ICP {
				t.Fatalf("%s: icp[%d] = %v, peer's own address is %v", when, i, set.icp[i], p.ICP)
			}
		}
	}
	peer := func(port int) Peer {
		return Peer{ICP: udp(net.IP{127, 0, 0, 1}, port), HTTP: udp(net.IP{127, 0, 0, 1}, port+1000).String()}
	}
	n.SetPeers([]Peer{peer(4001), peer(4002)})
	check("SetPeers", 2)
	if err := n.AddPeer(peer(4003)); err != nil {
		t.Fatal(err)
	}
	check("AddPeer", 3)
	if err := n.RemovePeer(peer(4001).HTTP); err != nil {
		t.Fatal(err)
	}
	check("RemovePeer", 2)
}
