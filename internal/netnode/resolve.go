package netnode

// This file adapts the live node to the shared resolution engine
// (internal/resolve): the engine owns the request lifecycle and every
// placement decision; the adapters below supply the node's sharded
// store, the hproto/ICP transport with its health bookkeeping, the
// locator strategies, and the telemetry/robustness hooks. The node
// keeps ownership of sockets, persistence, observability, and health —
// the engine never sees any of them directly. The request context
// threaded through the engine (rctx) is the request's *obs.Trace; every
// trace entry point is nil-safe, so telemetry-off nodes pay nothing.

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"eacache/internal/cache"
	"eacache/internal/chash"
	"eacache/internal/hproto"
	"eacache/internal/icp"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

// traceOf unboxes the request context. A *obs.Trace boxed into an any
// does not allocate (pointer types box for free), so threading it
// through the engine keeps the hot path allocation-neutral.
func traceOf(rctx any) *obs.Trace {
	tr, _ := rctx.(*obs.Trace)
	return tr
}

// hopOf is the trace's forwarding depth for ICP stamping: 0 at the
// front door, deeper on remote-parented requests, -1 (unstamped) when
// the request is untraced.
func hopOf(tr *obs.Trace) int {
	if tr == nil {
		return -1
	}
	return tr.Hop
}

// nodeStore is the engine's view of the node's cache.
type nodeStore struct{ n *Node }

var _ resolve.LocalStore = nodeStore{}

func (s nodeStore) Lookup(rctx any, url string, now time.Time) (cache.Document, bool) {
	n := s.n
	tr := traceOf(rctx)
	lookup := n.startStage(tr, stLocalLookup)
	doc, ok := n.store.Get(url, now)
	n.endStage(tr, lookup)
	return doc, ok
}

func (s nodeStore) ExpirationAge(now time.Time) time.Duration {
	return s.n.store.ExpirationAge(now)
}

func (s nodeStore) StoreCopy(doc cache.Document, now time.Time) bool {
	if s.n.draining.Load() || s.n.warming() {
		// A draining node keeps no new copies (its store must only
		// shrink while the handoff walks it), and a warming one relays
		// without storing until the group has converged on its arrival
		// — storing earlier could duplicate a copy a stale-view peer
		// still holds. Migration pushes bypass this path.
		return false
	}
	_, err := s.n.store.Put(doc, now)
	return err == nil
}

// nodeLocator dispatches to the node's configured location mechanism.
// Candidates carry only the peer's fetch (TCP) address as their ID —
// no boxed structs, so locating allocates nothing beyond the slice.
type nodeLocator struct{ n *Node }

var _ resolve.Locator = nodeLocator{}

// Locate implements resolve.Locator.
func (l nodeLocator) Locate(rctx any, url string, now time.Time) resolve.Located {
	n := l.n
	switch n.location {
	case resolve.LocateDigest:
		return n.digestLocate(traceOf(rctx), url)
	case resolve.LocateHash:
		h := n.hash.Load()
		if h == nil {
			// Unwired singleton: home for everything.
			return resolve.Located{Placement: resolve.PlacementAlways}
		}
		return h.Locate(rctx, url, now)
	default: // LocateICP
		return n.icpLocate(traceOf(rctx), url)
	}
}

// icpLocate runs the health-gated ICP fan-out and returns the hit
// responders mapped to their fetch addresses, ordered by their position
// in the peer list rather than by reply arrival. Peer-list order is a
// stable preference: on a LAN group the latency spread between
// responders is noise, and a deterministic choice is what lets the
// sim↔live parity gate (internal/parity) demand identical placement
// decisions from both stacks — the simulator's synchronous ICP picks
// the first sibling in wiring order.
func (n *Node) icpLocate(tr *obs.Trace, url string) resolve.Located {
	// The peer snapshot is immutable, so when every breaker is closed
	// (the steady state) it is fanned out as-is, ICP address slice and
	// all, copy-free; only a degraded group pays for the filtered slices.
	set := n.peers.Load()
	if set == nil {
		return resolve.Located{}
	}
	active, addrs, shared := set.list, set.icp, set.cands
	for i, p := range set.list {
		if !n.health.Allow(p.HTTP) {
			shared = nil
			active = make([]Peer, i, len(set.list))
			copy(active, set.list[:i])
			for _, q := range set.list[i+1:] {
				if n.health.Allow(q.HTTP) {
					active = append(active, q)
				}
			}
			addrs = icpAddrs(active)
			break
		}
	}
	if len(active) == 0 {
		return resolve.Located{}
	}
	fanout := n.startStage(tr, stICPFanout)
	// The Result and its slices are this fan-out's until the Put: nothing
	// below keeps an address past the candidate list, which holds the
	// peers' own fetch addresses.
	res := fanoutPool.Get().(*icp.Result)
	defer fanoutPool.Put(res)
	if err := n.icpClient.QueryInto(res, addrs, url, n.icpTimeout, hopOf(tr)); err != nil {
		tr.SpanErr(err)
		n.endStage(tr, fanout)
		n.warn("icp query failed", tr, "err", err)
		return resolve.Located{}
	}
	tr.Annotate("queried", strconv.Itoa(len(active)))
	tr.Annotate("replies", strconv.Itoa(len(res.Answered)))
	tr.Annotate("hits", strconv.Itoa(len(res.Responders)))
	if res.TimedOut {
		tr.Annotate("timed_out", "true")
	}
	n.endStage(tr, fanout)
	n.recordFanout(active, *res)

	// Responders are addrs' own pointers, so identity finds the peer. A
	// lone holder — the common case — is a view of the snapshot's own
	// candidate list, capped at one element so that a second holder's
	// append copies out instead of writing into the snapshot.
	var cands []resolve.Candidate
	for i, p := range active {
		if !slices.Contains(res.Responders, p.ICP) {
			continue
		}
		if cands == nil && shared != nil {
			cands = shared[i : i+1 : i+1]
		} else {
			cands = append(cands, resolve.Candidate{ID: p.HTTP})
		}
	}
	return resolve.Located{Candidates: cands}
}

// fanoutPool recycles the Result (and its address slices) a fan-out fills.
var fanoutPool = sync.Pool{New: func() any { return new(icp.Result) }}

// icpAddrs lists the peers' ICP addresses, index for index.
func icpAddrs(peers []Peer) []*net.UDPAddr {
	addrs := make([]*net.UDPAddr, len(peers))
	for i, p := range peers {
		addrs[i] = p.ICP
	}
	return addrs
}

// udpAddrEqual compares reply source addresses to peer-list addresses
// without allocating (IP.Equal matches IPv4 against its v6-mapped form,
// which is how loopback replies often arrive).
func udpAddrEqual(a, b *net.UDPAddr) bool {
	return a.Port == b.Port && a.Zone == b.Zone && a.IP.Equal(b.IP)
}

// digestLocate consults the (health-gated) fetched peer digests.
func (n *Node) digestLocate(tr *obs.Trace, url string) resolve.Located {
	scan := n.startStage(tr, stDigestScan)
	candidates := n.digestCandidates(n.peerList(), url)
	tr.Annotate("candidates", strconv.Itoa(len(candidates)))
	n.endStage(tr, scan)
	var cands []resolve.Candidate
	for _, p := range candidates {
		cands = append(cands, resolve.Candidate{ID: p.HTTP})
	}
	return resolve.Located{Candidates: cands}
}

// rebuildHashRing publishes a new hash locator over the node's own ring
// name plus the active peer set, stamped with the membership epoch that
// produced it. Called on every topology publish under LocateHash; the
// locator is immutable once published and swapped atomically, like the
// peer snapshot itself.
func (n *Node) rebuildHashRing(peers []Peer, epoch int64) {
	members := make([]string, 0, len(peers)+1)
	members = append(members, n.hashName)
	byName := make(map[string]Peer, len(peers))
	for _, p := range peers {
		name := ringName(p)
		members = append(members, name)
		byName[name] = p
	}
	ring, err := chash.New(0, members...)
	if err != nil {
		n.warn("hash ring rebuild failed", nil, "err", err)
		n.hash.Store(nil)
		return
	}
	n.hash.Store(&resolve.HashLocator{
		Ring:        ring,
		Self:        n.hashName,
		Epoch:       epoch,
		Fingerprint: ring.Fingerprint(),
		Candidate: func(member string) (resolve.Candidate, bool) {
			p, ok := byName[member]
			if !ok || !n.health.Allow(p.HTTP) {
				// Unknown name, or the breaker is open on the peer:
				// the locator walks on to the next owner in the chain.
				return resolve.Candidate{}, false
			}
			return resolve.Candidate{ID: p.HTTP}, true
		},
	})
}

// nodeTransport performs the engine's remote operations over hproto,
// feeding every attempt's evidence to the per-peer breaker.
type nodeTransport struct{ n *Node }

var _ resolve.Transport = nodeTransport{}

// FetchRemote implements resolve.Transport.
func (t nodeTransport) FetchRemote(rctx any, c resolve.Candidate, url string, sizeHint int64, reqAge time.Duration, rslv bool, _ time.Time) (resolve.Remote, resolve.FetchStatus) {
	n := t.n
	tr := traceOf(rctx)
	fetch := n.startStage(tr, stRemoteFetch)
	tr.Annotate("responder", c.ID)
	size, respAge, source, err := n.fetchFrom(tr, c.ID, url, sizeHint, reqAge, rslv)
	tr.SpanErr(err)
	n.endStage(tr, fetch)
	switch {
	case errors.Is(err, errNotFound):
		// The responder answered but no longer holds (and could not
		// resolve) the document — an eviction race or a stale digest,
		// never the peer's fault.
		n.health.ReportSuccess(c.ID)
		return resolve.Remote{ResponderAge: respAge}, resolve.FetchNotFound
	case err != nil:
		n.warn("remote fetch failed", tr, "peer", c.ID, "err", err)
		n.health.ReportFailure(c.ID)
		n.om.peerFailures[pfFetch].Inc()
		return resolve.Remote{}, resolve.FetchFailed
	}
	n.health.ReportSuccess(c.ID)
	return resolve.Remote{
		Doc:          cache.Document{URL: url, Size: size},
		ResponderAge: respAge,
		FromGroup:    source == hproto.SourceCache,
	}, resolve.FetchOK
}

func (t nodeTransport) ParentID() (string, bool) {
	return t.n.parentAddr, t.n.parentAddr != ""
}

func (t nodeTransport) FetchParent(rctx any, url string, sizeHint int64, reqAge time.Duration, _ time.Time) (resolve.Remote, error) {
	n := t.n
	tr := traceOf(rctx)
	parent := n.startStage(tr, stParentFetch)
	tr.Annotate("parent", n.parentAddr)
	size, parentAge, source, err := n.fetchUpstream(tr, n.parentAddr, url, sizeHint, reqAge, true)
	tr.SpanErr(err)
	n.endStage(tr, parent)
	if err != nil {
		return resolve.Remote{}, fmt.Errorf("netnode %s: parent resolve: %w", n.id, err)
	}
	return resolve.Remote{
		Doc:          cache.Document{URL: url, Size: size},
		ResponderAge: parentAge,
		FromGroup:    source == hproto.SourceCache,
	}, nil
}

func (t nodeTransport) HasOrigin() bool { return t.n.originAddr != "" }

func (t nodeTransport) FetchOrigin(rctx any, url string, sizeHint int64, reqAge time.Duration, _ time.Time) (cache.Document, error) {
	n := t.n
	tr := traceOf(rctx)
	origin := n.startStage(tr, stOriginFetch)
	size, _, _, err := n.fetchUpstream(tr, n.originAddr, url, sizeHint, reqAge, false)
	tr.SpanErr(err)
	n.endStage(tr, origin)
	if err != nil {
		return cache.Document{}, fmt.Errorf("netnode %s: origin fetch: %w", n.id, err)
	}
	return cache.Document{URL: url, Size: size}, nil
}

// nodeHooks maps the engine's decision points to telemetry spans and
// robustness counters. Placement spans record the scheme's verdict (the
// decision), not whether the copy physically fit — matching the
// pre-engine node.
type nodeHooks struct{ n *Node }

var _ resolve.Hooks = nodeHooks{}

// OnLocalHit: the outcome counter is recorded by observeRequest; no
// extra span.
func (h nodeHooks) OnLocalHit(any, string, time.Time) {}

func (h nodeHooks) OnRetry(any) { h.n.om.retries.Inc() }

func (h nodeHooks) OnFalseHit(rctx any, c resolve.Candidate, url string) {
	if h.n.location == resolve.LocateDigest {
		// Only a stale or colliding digest advertises a document the
		// peer does not have; under ICP a not-found is an eviction race
		// and not worth a log line.
		h.n.warn("digest false hit", traceOf(rctx), "peer", c.ID, "url", url)
	}
}

func (h nodeHooks) OnRemoteHit(rctx any, _ resolve.Candidate, url string, size int64, reqAge, respAge time.Duration, store, _, _ bool, _ time.Time) {
	h.n.placementSpan(traceOf(rctx), roleRequester, url, size, reqAge, respAge, decisionOf(store))
}

func (h nodeHooks) OnFallback(any) { h.n.om.fallbacks.Inc() }

func (h nodeHooks) OnParentDegrade(rctx any, url string, err error) {
	h.n.warn("parent resolve failed, degrading to origin", traceOf(rctx), "url", url, "err", err)
	h.n.om.fallbacks.Inc()
}

func (h nodeHooks) OnParentFetch(rctx any, _, url string, size int64, reqAge, parentAge time.Duration, _, store, _ bool, _ time.Time) {
	h.n.placementSpan(traceOf(rctx), roleRequester, url, size, reqAge, parentAge, decisionOf(store))
}

func (h nodeHooks) OnOriginFetch(rctx any, url string, size int64, reqAge time.Duration, store, _ bool, _ time.Time) {
	h.n.placementSpan(traceOf(rctx), roleRequester, url, size, reqAge, cache.NoContention, decisionOf(store))
}
