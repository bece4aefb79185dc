// Package parity is the standing sim↔live regression gate: it replays
// one deterministic generated trace through the in-process simulator
// (internal/proxy via internal/group) and through a live netnode group
// (real ICP fan-out over UDP, real hproto fetches over TCP) and demands
// that both stacks make byte-for-byte identical decisions — same hit
// mix, same bytes served from the group, same placement (store) and
// promotion decisions, and the same final resident set in every cache.
//
// Both stacks delegate the request lifecycle to internal/resolve, so a
// divergence here means an adapter leaks policy: a locator that orders
// candidates differently, a store adapter with different freshness
// semantics, or a transport that rounds an expiration age. Determinism
// on the live side rests on three legs: requests are replayed
// sequentially, the live node orders ICP hit responders by peer-list
// position (not reply arrival), and the cache-visible clock is injected
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

func TestSimLiveParityICPEA(t *testing.T) {
	const caches = 4
	const perCache = int64(48 << 10)
	records := workload(t)

	// Sim side: a distributed EA group with ICP location and the same
	// per-cache budget the live nodes get. group.New splits
	// AggregateBytes evenly and defaults to LRU and the package
	// expiration horizon — the live configs below mirror both.
	g, err := group.New(group.Config{
		Caches:         caches,
		AggregateBytes: perCache * caches,
		Scheme:         core.EA{},
	})
	if err != nil {
		t.Fatalf("group.New: %v", err)
	}
	leaves := g.Leaves()
	leafIndex := make(map[string]int, len(leaves))
	for i, leaf := range leaves {
		leafIndex[leaf.ID()] = i
	}

	var simT tally
	route := make([]int, len(records))
	for i, r := range records {
		idx, ok := leafIndex[g.Route(r.Client).ID()]
		if !ok {
			t.Fatalf("client %q routed to unknown leaf", r.Client)
		}
		route[i] = idx
		res, err := leaves[idx].Request(r.URL, r.Size, r.Time)
		if err != nil {
			t.Fatalf("sim request %d (%s): %v", i, r.URL, err)
		}
		simT.add(res.Outcome, res.Doc.Size, res.Stored, res.Promoted)
	}

	// Live side: four real nodes over loopback, EA + ICP, sharing a
	// trace-driven clock so cache-visible time matches the sim exactly.
	clk := &traceClock{}
	clk.set(records[0].Time)

	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer origin.Close()

	nodes := make([]*netnode.Node, caches)
	for i := range nodes {
		store, err := cache.NewSharded(cache.ShardedConfig{
			Shards:            1,
			Capacity:          perCache,
			ExpirationHorizon: cache.DefaultExpirationHorizon,
		})
		if err != nil {
			t.Fatalf("cache %d: %v", i, err)
		}
		node, err := netnode.New(netnode.Config{
			ID:         fmt.Sprintf("cache-%d", i),
			ICPAddr:    "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
			Store:      store,
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
			Now:        clk.now,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		defer node.Close()
		nodes[i] = node
	}
	// Wire peers in index order skipping self — the exact neighbour
	// order the sim group uses, which the live ICP locator's
	// peer-list-position ordering turns into the same responder choice.
	for i, nd := range nodes {
		var peers []netnode.Peer
		for j, other := range nodes {
			if j == i {
				continue
			}
			peers = append(peers, netnode.Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr()})
		}
		nd.SetPeers(peers)
	}

	var liveT tally
	for i, r := range records {
		clk.set(r.Time)
		res, err := nodes[route[i]].Request(r.URL, r.Size)
		if err != nil {
			t.Fatalf("live request %d (%s): %v", i, r.URL, err)
		}
		liveT.add(res.Outcome, res.Size, res.Stored, res.Promoted)
	}

	if simT != liveT {
		t.Errorf("decision divergence over %d requests:\n  sim  %+v\n  live %+v", len(records), simT, liveT)
	}
	// Single-flight coalescing is on by default in both stacks; for this
	// serialized replay it must be a strict no-op — no request may have
	// been served as a follower, shed, or queued behind the origin
	// semaphore, or the overload layer changed serialized behaviour.
	for i, nd := range nodes {
		rb := nd.Robustness()
		if rb.CoalescedFollowers != 0 || rb.LeaderRetries != 0 || rb.Sheds != 0 || rb.OriginWaits != 0 {
			t.Errorf("cache-%d: overload layer fired on serialized traffic: %+v", i, rb)
		}
	}
	if simT.Remote == 0 {
		t.Error("workload produced no remote hits; parity over the cooperative path untested")
	}
	if simT.Stored == 0 || simT.Promoted == 0 {
		t.Errorf("workload exercised no placement decisions (stored=%d promoted=%d)", simT.Stored, simT.Promoted)
	}

	// Final resident sets must match cache-for-cache: equal counts plus
	// sim ⊆ live is set equality.
	for i, leaf := range leaves {
		urls := leaf.Store().URLs()
		if got := nodes[i].Len(); got != len(urls) {
			t.Errorf("cache-%d resident count: sim %d, live %d", i, len(urls), got)
		}
		for _, u := range urls {
			if !nodes[i].Contains(u) {
				t.Errorf("cache-%d: sim holds %s, live does not", i, u)
			}
		}
	}
}
