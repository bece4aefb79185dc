package netnode

// This file adapts the live node to the shared resolution engine
// (internal/resolve): the engine owns the request lifecycle, the
// responder's half of every exchange and every placement decision; the
// adapters below supply the node's sharded store, the hproto/ICP
// transport with its health bookkeeping, the locator strategies, and the
// telemetry/robustness hooks. The node
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
	return s.Keep(doc, now) == resolve.Stored
}

// nodeStore is also the responder's Holder.
var _ resolve.Holder = nodeStore{}

func (s nodeStore) Peek(url string) (cache.Document, bool) { return s.n.store.Peek(url) }

func (s nodeStore) Promote(url string, now time.Time) { s.n.store.Touch(url, now) }

// Keep stores a requester's copy, or a copy resolved upstream outside
// hash location, and says what the store did. Under hash location the
// copy is the group's only one, so this node must be its home on the ring
// current at store time, not on the one the request located under: a
// join published while the origin answered has moved the URL, and that
// epoch's migration pass walked a store that did not hold it yet.
func (s nodeStore) Keep(doc cache.Document, now time.Time) resolve.Disposition {
	n := s.n
	h := n.hash.Load()
	if n.location == resolve.LocateHash && !homes(h, doc.URL) {
		return resolve.RefusedOffRing
	}
	return n.keepOnRing(doc, h, now)
}

// homeStore is a hash home's Holder: it keeps a resolved copy on the ring
// the keep verdict was reached on, not on the ring current at store time
// (StoreCopy's re-check), so that an acting home keeps what it resolved.
type homeStore struct {
	nodeStore
	ring *resolve.HashLocator
}

func (s homeStore) Keep(doc cache.Document, now time.Time) resolve.Disposition {
	return s.n.keepOnRing(doc, s.ring, now)
}

// keepOnRing stores doc, decided on the hash ring h (nil outside hash
// location), and says what the store did. A draining node keeps no new
// copies: its store must only shrink while the handoff walks it. A
// publish that replaces h during the Put may have run its migration pass
// before the copy arrived, and no later pass would move it; so when the
// new ring homes the URL elsewhere, the copy is dropped again. The store
// fails a Put only for a document it cannot fit.
func (n *Node) keepOnRing(doc cache.Document, h *resolve.HashLocator, now time.Time) resolve.Disposition {
	if n.draining.Load() {
		return resolve.RefusedDraining
	}
	if _, err := n.store.Put(doc, now); err != nil {
		return resolve.RefusedTooLarge
	}
	if h2 := n.hash.Load(); h2 != h && !homes(h2, doc.URL) {
		n.store.Remove(doc.URL)
		return resolve.RefusedOffRing
	}
	return resolve.Stored
}

// homes reports whether h places url on this node.
func homes(h *resolve.HashLocator, url string) bool {
	return h.Locate(nil, url, time.Time{}).Placement == resolve.PlacementAlways
}

// nodeLocator dispatches to the node's configured location mechanism.
// Candidates carry the peer's fetch (TCP) address as their ID, and a hash
// candidate its ring as a pointer Ref — no boxed structs, so locating
// allocates nothing beyond the slice.
type nodeLocator struct{ n *Node }

var _ resolve.Locator = nodeLocator{}

// Locate implements resolve.Locator.
func (l nodeLocator) Locate(rctx any, url string, now time.Time) resolve.Located {
	n := l.n
	switch n.location {
	case resolve.LocateDigest:
		return n.digestLocate(traceOf(rctx), url)
	case resolve.LocateHash:
		// An unwired singleton has no ring and is home for everything.
		return n.hash.Load().Locate(rctx, url, now)
	default: // LocateICP
		return n.icpLocate(traceOf(rctx), url)
	}
}

// icpLocate runs the ICP fan-out over the peers not dead and returns the hit
// responders mapped to their fetch addresses, ordered by their position
// in the peer list rather than by reply arrival. Peer-list order is a
// stable preference: on a LAN group the latency spread between
// responders is noise, and a deterministic choice is what lets the
// sim↔live parity gate (internal/parity) demand identical placement
// decisions from both stacks — the simulator's synchronous ICP picks
// the first sibling in wiring order.
func (n *Node) icpLocate(tr *obs.Trace, url string) resolve.Located {
	// The peer snapshot is immutable, so when no peer is dead (the
	// steady state) it is fanned out as-is, ICP address slice and all,
	// copy-free; only a degraded group pays for the filtered slices.
	set := n.peers.Load()
	if set == nil {
		return resolve.Located{}
	}
	active, addrs, shared := set.list, set.icp, set.cands
	for i, p := range set.list {
		if set.live[p.HTTP].dead() {
			shared = nil
			active = make([]Peer, i, len(set.list))
			copy(active, set.list[:i])
			for _, q := range set.list[i+1:] {
				if !set.live[q.HTTP].dead() {
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

// digestLocate consults the fetched digests of the peers not dead.
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
	n.hash.Store(n.hashLocator(peers, true, epoch))
}

// hashLocator builds a locator over the peers' ring names, plus this
// node's own when withSelf is set (nil when the ring cannot be built).
// Without it, Self is not on the ring, so Locate never stops at this
// node and the first live owner is always a remote candidate.
func (n *Node) hashLocator(peers []Peer, withSelf bool, epoch int64) *resolve.HashLocator {
	members := make([]string, 0, len(peers)+1)
	if withSelf {
		members = append(members, n.hashName)
	}
	byName := make(map[string]Peer, len(peers))
	for _, p := range peers {
		name := ringName(p)
		members = append(members, name)
		byName[name] = p
	}
	ring, err := chash.New(0, members...)
	if err != nil {
		n.warn("hash ring build failed", nil, "err", err)
		return nil
	}
	h := &resolve.HashLocator{Ring: ring, Self: n.hashName, Epoch: epoch, Fingerprint: ring.Fingerprint()}
	h.Candidate = func(member string) (resolve.Candidate, bool) {
		p, ok := byName[member]
		if !ok || n.liveness(p.HTTP).dead() {
			// Unknown name, or the breaker is open on the peer:
			// the locator walks on to the next owner in the chain.
			return resolve.Candidate{}, false
		}
		// Ref is the ring the candidate was located on, whose
		// fingerprint the resolve request carries.
		return resolve.Candidate{ID: p.HTTP, Ref: h}, true
	}
	return h
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
	// A hash candidate carries the ring it was located on. Its fingerprint,
	// not that of a ring published since, tells the responder whether this
	// requester routes as it does (see mayKeepResolved).
	var ringFP uint64
	if h, ok := c.Ref.(*resolve.HashLocator); ok && rslv {
		ringFP = h.Fingerprint
	}
	size, respAge, source, err := n.fetchFrom(tr, c.ID, url, sizeHint, reqAge, rslv, ringFP)
	tr.SpanErr(err)
	n.endStage(tr, fetch)
	switch {
	case errors.Is(err, errNotFound):
		// The responder answered but no longer holds (and could not
		// resolve) the document — an eviction race or a stale digest,
		// never the peer's fault.
		n.reportSuccess(c.ID)
		return resolve.Remote{ResponderAge: respAge}, resolve.FetchNotFound
	case err != nil:
		n.warn("remote fetch failed", tr, "peer", c.ID, "err", err)
		n.reportFailure(c.ID)
		n.om.peerFailures[pfFetch].Inc()
		return resolve.Remote{}, resolve.FetchFailed
	}
	n.reportSuccess(c.ID)
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

func (t nodeTransport) FetchOrigin(rctx any, url string, sizeHint int64, reqAge time.Duration, _ time.Time) (cache.Document, error) {
	n := t.n
	if n.originAddr == "" {
		return cache.Document{}, fmt.Errorf("netnode %s: miss for %s and no origin", n.id, url)
	}
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

// nodeHooks maps the engine's decision points to telemetry spans, the
// placement-decision audit log and robustness counters.
type nodeHooks struct{ n *Node }

var _ resolve.Hooks = nodeHooks{}

// OnPlacement counts a verdict of any role and appends it to the audit
// log, on the request's trace when it is sampled. The counter counts what
// was placed: a copy the store refused counts as a reject, while the
// audit record keeps the scheme's verdict beside the store's refusal. A
// requester's verdict is also stamped onto its trace: a placement span
// marking where in the timeline the rule ran, with both expiration ages
// and the verdict on the trace's top-level fields. The span itself carries no attributes: duplicating
// the ages there would cost three string allocations on every
// non-local-hit request for data the trace already has. A responder's
// trace gets its ages when the exchange ends.
func (h nodeHooks) OnPlacement(rctx any, role resolve.Role, url string, size int64, localAge, peerAge time.Duration, verdict bool, d resolve.Disposition, _ time.Time) {
	n, tr := h.n, traceOf(rctx)
	n.om.decisions[role][verdictIndex(verdict && !d.Refused())].Inc()
	n.auditDecision(tr, role, url, verdict, d, size, localAge, peerAge)
	if tr == nil || role != resolve.RoleRequester {
		return
	}
	tr.CloseSpan(tr.OpenSpan(obs.StagePlacement, time.Now()), 0)
	tr.RequesterAgeMS = obs.AgeMS(localAge)
	tr.ResponderAgeMS = obs.AgeMS(peerAge)
	tr.Decision = role.Verdict(verdict)
}

func (h nodeHooks) OnFalseHit(rctx any, c resolve.Candidate, url string) {
	if h.n.location == resolve.LocateDigest {
		// Only a stale or colliding digest advertises a document the
		// peer does not have; under ICP a not-found is an eviction race
		// and not worth a log line.
		h.n.warn("digest false hit", traceOf(rctx), "peer", c.ID, "url", url)
	}
}

func (h nodeHooks) OnRetry(any) { h.n.om.retries.Inc() }

func (h nodeHooks) OnFallback(rctx any, url string, err error) {
	if err != nil {
		h.n.warn("parent resolve failed, degrading to origin", traceOf(rctx), "url", url, "err", err)
	}
	h.n.om.fallbacks.Inc()
}
