// Package parity is the standing sim↔live regression gate: it replays
// one deterministic generated trace through the in-process simulator
// (internal/proxy via internal/group) and through a live netnode group
// (real ICP fan-out over UDP, real hproto fetches over TCP) and demands
// that both stacks make byte-for-byte identical decisions — same hit
// mix, same bytes served from the group, the same placement verdicts
// (role, verdict, URL, size and both expiration ages) recorded in each
// cache's decision log, and the same final resident set in every cache.
//
// Both stacks delegate the request lifecycle to internal/resolve, so a
// divergence here means an adapter leaks policy: a locator that orders
// candidates differently, a store adapter that serves a copy the other
// would not, or a transport that rounds an expiration age. Determinism
// on the live side rests on three legs: requests are replayed
// sequentially, the live node orders ICP hit responders by peer-list
// position (not reply arrival) and, under the 10s ICP timeout set here,
// keeps listening after the first hit long enough (at least timeout/64,
// 156ms) to hear every holder, and the cache-visible clock is injected
// (netnode.Config.Now) and driven by the trace timestamps.
package parity

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
	"eacache/internal/obs"
	"eacache/internal/proxy"
	"eacache/internal/resolve"
	"eacache/internal/trace"
)

// traceClock is the shared fake clock for the live group: requester and
// responder nodes all read it, the replay loop advances it to each
// record's timestamp. Atomic because responder-side reads happen on the
// nodes' accept goroutines.
type traceClock struct{ ns atomic.Int64 }

func (c *traceClock) set(t time.Time) { c.ns.Store(t.UnixNano()) }
func (c *traceClock) now() time.Time  { return time.Unix(0, c.ns.Load()) }

// tally accumulates everything both stacks must agree on. Comparable,
// so the assertion is one != .
type tally struct {
	Local, Remote, Miss int
	// HitBytes is the byte-hit numerator: bytes served from the group
	// (local + remote). TotalBytes is the denominator.
	HitBytes, TotalBytes int64
	// Stored counts requester-side placements, Promoted responder-side
	// refreshes — together the paper's placement decisions.
	Stored, Promoted int
}

func (t *tally) add(outcome metrics.Outcome, size int64, stored, promoted bool) {
	switch outcome {
	case metrics.LocalHit:
		t.Local++
		t.HitBytes += size
	case metrics.RemoteHit:
		t.Remote++
		t.HitBytes += size
	default:
		t.Miss++
	}
	t.TotalBytes += size
	if stored {
		t.Stored++
	}
	if promoted {
		t.Promoted++
	}
}

// decision is the part of an obs.Decision both stacks must agree on, the
// store's outcome included: the clock and request identities are each
// stack's own.
type decision struct {
	Role, Verdict, URL, Outcome, Reason string
	LocalAgeMS, PeerAgeMS, SizeBytes    int64
}

func decisionOf(d obs.Decision) decision {
	return decision{d.Role, d.Verdict, d.URL, d.Outcome, d.Reason, d.LocalAgeMS, d.PeerAgeMS, d.SizeBytes}
}

// workload generates the shared deterministic trace: small enough that
// the live replay (one real ICP fan-out per non-local request) stays
// fast, contended enough (catalogue ≫ cache) that evictions happen and
// expiration ages diverge per cache, with enough distinct clients that
// all four caches see traffic.
func workload(t testing.TB) []trace.Record {
	t.Helper()
	cfg := trace.BULike().Scaled(0.003)
	cfg.Users = 8
	cfg.Sessions = 32
	cfg.CohortSize = 4
	records, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("generate trace: %v", err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)
	trace.SortByTime(records)
	return records
}

// liveNode starts one node of a live parity group: EA, one cache shard
// of capacity bytes with the simulator's default expiration horizon, the
// shared trace clock, and its placement verdicts kept in a log of its
// own. cfg supplies the ID and the topology (origin, parent, location).
func liveNode(t *testing.T, cfg netnode.Config, capacity int64, clk *traceClock, verdicts int) (*netnode.Node, *obs.DecisionLog) {
	t.Helper()
	store, err := cache.NewSharded(cache.ShardedConfig{
		Shards:            1,
		Capacity:          capacity,
		ExpirationHorizon: cache.DefaultExpirationHorizon,
	})
	if err != nil {
		t.Fatalf("%s cache: %v", cfg.ID, err)
	}
	tel := obs.New(cfg.ID, 0)
	tel.Placement = obs.NewDecisionLog(verdicts)
	cfg.ICPAddr, cfg.HTTPAddr = "127.0.0.1:0", "127.0.0.1:0"
	cfg.Store, cfg.Scheme, cfg.Now, cfg.Obs = store, core.EA{}, clk.now, tel
	// A query ends when every peer has answered, so a long timeout
	// costs nothing, and a reply that a loaded machine delays past the
	// default 150ms still counts.
	cfg.ICPTimeout = 10 * time.Second
	node, err := netnode.New(cfg)
	if err != nil {
		t.Fatalf("node %s: %v", cfg.ID, err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, tel.Placement
}

// replaySim replays records through g, each at the leaf its client is
// routed to, and returns the tally and the leaf index of every record.
func replaySim(t *testing.T, g *group.Group, records []trace.Record) (tally, []int) {
	t.Helper()
	leaves := g.Leaves()
	var simT tally
	route := make([]int, len(records))
	for i, r := range records {
		idx := g.Route(r.Client.String())
		route[i] = idx
		res, err := leaves[idx].Request(r.URL, r.Size, r.Time())
		if err != nil {
			t.Fatalf("sim request %d (%s): %v", i, r.URL, err)
		}
		simT.add(res.Outcome, res.Doc.Size, res.Stored, res.Promoted)
	}
	return simT, route
}

// replayLive replays records through the live leaves on the simulator's
// routing, advancing the trace clock to each record's timestamp.
func replayLive(t *testing.T, clk *traceClock, leaves []*netnode.Node, route []int, records []trace.Record) tally {
	t.Helper()
	var liveT tally
	for i, r := range records {
		clk.set(r.Time())
		res, err := leaves[route[i]].Request(r.URL, r.Size)
		if err != nil {
			t.Fatalf("live request %d (%s): %v", i, r.URL, err)
		}
		liveT.add(res.Outcome, res.Size, res.Stored, res.Promoted)
	}
	return liveT
}

// compareGroups holds the two replays equal: the tallies, every node's
// placement verdicts one for one against the simulator's for the cache
// of the same ID, and every cache's final resident set. sim and live
// list the caches in the same order; it returns the simulator's verdicts
// by cache ID for the caller's own checks.
func compareGroups(t *testing.T, simT, liveT tally, simLog *obs.DecisionLog, sim []*proxy.Proxy, live []*netnode.Node, logs []*obs.DecisionLog) map[string][]decision {
	t.Helper()
	if simT != liveT {
		t.Errorf("decision divergence:\n  sim  %+v\n  live %+v", simT, liveT)
	}
	// Single-flight coalescing is on by default in both stacks; for a
	// serialized replay it must be a strict no-op — no request may have
	// been served as a follower, shed, or queued behind the origin
	// semaphore, or the overload layer changed serialized behaviour.
	for i, nd := range live {
		rb := nd.Robustness()
		if rb.CoalescedFollowers != 0 || rb.LeaderRetries != 0 || rb.Sheds != 0 || rb.OriginWaits != 0 {
			t.Errorf("%s: overload layer fired on serialized traffic: %+v", sim[i].ID(), rb)
		}
	}

	simByNode := make(map[string][]decision)
	for _, d := range simLog.Snapshot() {
		simByNode[d.Node] = append(simByNode[d.Node], decisionOf(d))
	}
	for i, lg := range logs {
		id := sim[i].ID()
		var got []decision
		for _, d := range lg.Snapshot() {
			got = append(got, decisionOf(d))
		}
		want := simByNode[id]
		if len(got) != len(want) {
			t.Errorf("%s: live recorded %d decisions, sim %d", id, len(got), len(want))
		}
		for j := range min(len(got), len(want)) {
			if got[j] != want[j] {
				t.Errorf("%s decision %d:\n  sim  %+v\n  live %+v", id, j, want[j], got[j])
				break
			}
		}
	}

	// Final resident sets must match cache-for-cache: equal counts plus
	// sim ⊆ live is set equality.
	for i, p := range sim {
		urls := p.Store().URLs()
		if got := live[i].Len(); got != len(urls) {
			t.Errorf("%s resident count: sim %d, live %d", p.ID(), len(urls), got)
		}
		for _, u := range urls {
			if !live[i].Contains(u) {
				t.Errorf("%s: sim holds %s, live does not", p.ID(), u)
			}
		}
	}
	return simByNode
}

// countVerdicts tallies decisions of one role by verdict.
func countVerdicts(ds []decision, role string) map[string]int {
	out := make(map[string]int)
	for _, d := range ds {
		if d.Role == role {
			out[d.Verdict]++
		}
	}
	return out
}

func TestSimLiveParityICPEA(t *testing.T) {
	const caches = 4
	const perCache = int64(48 << 10)
	records := workload(t)

	// Sim side: a distributed EA group with ICP location and the same
	// per-cache budget the live nodes get. group.New splits
	// AggregateBytes evenly and defaults to LRU and the package
	// expiration horizon — the live configs below mirror both.
	// Every placement verdict of the replay is kept: each request makes
	// at most two (the requester's and the responder's).
	simLog := obs.NewDecisionLog(2 * len(records))
	g, err := group.New(group.Config{
		Caches:         caches,
		AggregateBytes: perCache * caches,
		Scheme:         core.EA{},
		Decisions:      simLog,
	})
	if err != nil {
		t.Fatalf("group.New: %v", err)
	}
	simT, route := replaySim(t, g, records)

	// Live side: four real nodes over loopback, EA + ICP, sharing a
	// trace-driven clock so cache-visible time matches the sim exactly.
	clk := &traceClock{}
	clk.set(records[0].Time())
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer origin.Close()
	nodes := make([]*netnode.Node, caches)
	logs := make([]*obs.DecisionLog, caches)
	for i := range nodes {
		nodes[i], logs[i] = liveNode(t, netnode.Config{
			ID:         fmt.Sprintf("cache-%d", i),
			OriginAddr: origin.Addr(),
		}, perCache, clk, 2*len(records))
	}
	// Wire peers in index order skipping self — the exact neighbour
	// order the sim group uses, which the live ICP locator's
	// peer-list-position ordering turns into the same responder choice.
	for i, nd := range nodes {
		var peers []netnode.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, netnode.Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr()})
			}
		}
		nd.SetPeers(peers)
	}
	liveT := replayLive(t, clk, nodes, route, records)

	simByNode := compareGroups(t, simT, liveT, simLog, g.Leaves(), nodes, logs)
	if simT.Remote == 0 {
		t.Error("workload produced no remote hits; parity over the cooperative path untested")
	}
	if simT.Stored == 0 || simT.Promoted == 0 {
		t.Errorf("workload exercised no placement decisions (stored=%d promoted=%d)", simT.Stored, simT.Promoted)
	}
	recorded := 0
	for _, ds := range simByNode {
		recorded += len(ds)
	}
	if recorded < simT.Stored+simT.Promoted {
		t.Errorf("sim recorded %d decisions for %d stores and %d promotions", recorded, simT.Stored, simT.Promoted)
	}
}

// TestSimLiveParityHierarchy replays the trace through leaves under one
// parent (paper §3.3): every leaf ICP-queries its siblings and then the
// parent, and resolves a group-wide miss through the parent, which keeps
// the copy by the parent rule. The parent's records — its responder
// verdicts on the copies it serves and its keep verdicts on the misses
// it resolves — must match the simulator's one for one.
func TestSimLiveParityHierarchy(t *testing.T) {
	const leaves = 3
	const perCache = int64(48 << 10)
	records := workload(t)

	// Sim side: group.New gives the parent the same share of the
	// aggregate as each leaf, and the parent "parent-0" comes last in
	// every leaf's neighbour list.
	simLog := obs.NewDecisionLog(3 * len(records))
	g, err := group.New(group.Config{
		Caches:         leaves,
		AggregateBytes: perCache * (leaves + 1),
		Architecture:   group.Hierarchical,
		Scheme:         core.EA{},
		Decisions:      simLog,
	})
	if err != nil {
		t.Fatalf("group.New: %v", err)
	}
	simT, route := replaySim(t, g, records)

	// Live side: the parent alone knows the origin. The leaves know
	// none, so a failed parent resolution fails the request, as the
	// simulator's does, instead of degrading to the origin.
	clk := &traceClock{}
	clk.set(records[0].Time())
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer origin.Close()
	parent, parentLog := liveNode(t, netnode.Config{ID: "parent-0", OriginAddr: origin.Addr()}, perCache, clk, 3*len(records))
	nodes := make([]*netnode.Node, leaves)
	logs := make([]*obs.DecisionLog, leaves)
	for i := range nodes {
		nodes[i], logs[i] = liveNode(t, netnode.Config{
			ID:         fmt.Sprintf("cache-%d", i),
			ParentAddr: parent.HTTPAddr(),
		}, perCache, clk, 3*len(records))
	}
	// Siblings in index order, then the parent: the simulator's
	// neighbour order.
	for i, nd := range nodes {
		var peers []netnode.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, netnode.Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr()})
			}
		}
		nd.SetPeers(append(peers, netnode.Peer{ICP: parent.ICPAddr(), HTTP: parent.HTTPAddr()}))
	}
	liveT := replayLive(t, clk, nodes, route, records)

	simByNode := compareGroups(t, simT, liveT, simLog, g.All(), append(nodes, parent), append(logs, parentLog))
	keeps := countVerdicts(simByNode["parent-0"], obs.RoleParent)
	if keeps[obs.DecisionAccept] == 0 || keeps[obs.DecisionReject] == 0 {
		t.Errorf("parent rule exercised one way only: %v", keeps)
	}
	if serves := countVerdicts(simByNode["parent-0"], obs.RoleResponder); len(serves) == 0 {
		t.Error("parent never served a copy it held; the responder rule at the parent is untested")
	}
}

// TestSimLiveParityHash replays the trace through consistent-hash home
// routing: a leaf that is not a URL's home asks the home to resolve it,
// and the home serves its copy as a real hit or fetches the miss from
// the origin and keeps it. The simulator names its proxies and the live
// nodes their ring members alike, so both place every URL on the same
// home; each home's accept records must match the simulator's.
func TestSimLiveParityHash(t *testing.T) {
	const caches = 4
	const perCache = int64(48 << 10)
	records := workload(t)

	simLog := obs.NewDecisionLog(2 * len(records))
	g, err := group.New(group.Config{
		Caches:         caches,
		AggregateBytes: perCache * caches,
		Scheme:         core.EA{},
		Location:       resolve.LocateHash,
		Decisions:      simLog,
	})
	if err != nil {
		t.Fatalf("group.New: %v", err)
	}
	simT, route := replaySim(t, g, records)

	clk := &traceClock{}
	clk.set(records[0].Time())
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer origin.Close()
	nodes := make([]*netnode.Node, caches)
	logs := make([]*obs.DecisionLog, caches)
	for i := range nodes {
		id := fmt.Sprintf("cache-%d", i)
		nodes[i], logs[i] = liveNode(t, netnode.Config{
			ID:         id,
			OriginAddr: origin.Addr(),
			Location:   resolve.LocateHash,
			HashName:   id,
		}, perCache, clk, 2*len(records))
	}
	for i, nd := range nodes {
		var peers []netnode.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, netnode.Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr(), Name: fmt.Sprintf("cache-%d", j)})
			}
		}
		nd.SetPeers(peers)
	}
	liveT := replayLive(t, clk, nodes, route, records)

	simByNode := compareGroups(t, simT, liveT, simLog, g.Leaves(), nodes, logs)
	if simT.Remote == 0 {
		t.Error("workload produced no hits at a remote home")
	}
	homed := 0
	for _, ds := range simByNode {
		homed += countVerdicts(ds, obs.RoleParent)[obs.DecisionAccept]
	}
	if homed == 0 {
		t.Error("no home resolved a miss for another leaf; the home's keep is untested")
	}
}
