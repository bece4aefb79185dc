package netnode

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"eacache/internal/cache"
	"eacache/internal/digest"
	"eacache/internal/hproto"
)

// DigestURL is the reserved URL under which a node serves its own cache
// digest over the ordinary fetch protocol — the same trick Squid uses
// (its digests live at /squid-internal-periodic/store_digest). Peers GET
// it, cache the filter, and consult it locally instead of sending ICP
// queries. A peer holding a replica at generation G requests
// "eac:digest?since=G" and receives a compact delta of the projection
// bits that flipped since G (or a full transfer when the change log no
// longer covers the span); the bare URL means since=0.
const DigestURL = "eac:digest"

// digestSinceParam is the query key carrying the requester's replica
// generation.
const digestSinceParam = "since="

// DefaultDigestRefresh is how long a fetched peer digest is trusted before
// being revalidated.
const DefaultDigestRefresh = 10 * time.Second

// digestState is the digest-location machinery of a Node. The node's own
// summary is maintained incrementally from the cache event sink — every
// Put/Evict/Remove is O(k) counter work, and steady state never rescans
// the URL set (digest.Incremental's escape hatch aside). All fields are
// guarded by Node.digestMu; peer filters are immutable once published so
// lookups can use them after dropping the lock.
type digestState struct {
	// own is this node's published summary.
	own *digest.Incremental
	// peers caches the neighbours' fetched digest replicas by HTTP
	// address.
	peers map[string]*peerDigest
	// refresh bounds the trust window for fetched digests; staleness is
	// measured on the node's injected clock (Config.Now).
	refresh time.Duration
}

// peerDigest is one neighbour's digest replica plus its single-flight
// revalidation state.
type peerDigest struct {
	// filter is the replica (nil until first fetched); treated as
	// immutable — a delta is applied to a clone which is then swapped in.
	filter    *digest.Filter
	gen       uint64
	fetchedAt time.Time
	// inflight is non-nil while a refresh flight is running; it is
	// closed when the flight completes. Misses that find data serve the
	// stale replica instead of waiting; misses that find none wait for
	// this one flight instead of dialling their own.
	inflight chan struct{}
	// deltas/fulls count the transfers applied to this replica, for the
	// admin surface and eacctl.
	deltas, fulls int64
}

func newDigestState(capacity int64, refresh time.Duration) (*digestState, error) {
	own, err := digest.NewIncremental(digest.ExpectedEntries(capacity), digest.FPRate, digest.DefaultDeltaWindow)
	if err != nil {
		return nil, err
	}
	if refresh <= 0 {
		refresh = DefaultDigestRefresh
	}
	return &digestState{
		own:     own,
		peers:   make(map[string]*peerDigest),
		refresh: refresh,
	}, nil
}

// digestEvent is the cache event sink feeding the own summary: inserts
// count in, evictions and removals count out, refreshes of an already
// cached URL are membership no-ops. It runs synchronously inside store
// mutations (under a shard lock), so it only touches the digest state —
// never the store.
//
// Tier moves fall out naturally: a demotion or a promotion-from-disk
// keeps the document resident in the logical store, so both kinds miss
// every case below and the membership is untouched; a disk-tier evict or
// remove means the URL truly left the node, and those share the Kind
// values the exit arm already matches.
func (n *Node) digestEvent(ev cache.Event) {
	switch ev.Kind {
	case cache.EventInsert:
		if ev.Refresh {
			return
		}
		n.digestMu.Lock()
		n.digests.own.Add(ev.Doc.URL)
		n.digestMu.Unlock()
	case cache.EventEvict, cache.EventRemove:
		n.digestMu.Lock()
		n.digests.own.Remove(ev.Doc.URL)
		n.digestMu.Unlock()
	}
}

// maybeRebuildOwn takes the counter-saturation escape hatch when the
// incremental summary reports degradation: a full-URL-scan rebuild,
// counted so "steady state performs zero rebuilds" is checkable. The URL
// snapshot is taken before the digest lock (the store takes shard locks)
// — mutations racing the scan can skew the rebuilt filter by a document
// or two, which the digest protocol already tolerates (it is advisory;
// false hits fall through to the origin).
func (n *Node) maybeRebuildOwn() {
	n.digestMu.Lock()
	need := n.digests.own.NeedsRebuild()
	n.digestMu.Unlock()
	if !need {
		return
	}
	urls := n.store.URLs()
	n.digestMu.Lock()
	if n.digests.own.NeedsRebuild() {
		n.digests.own.Rebuild(urls)
		n.om.digestRebuilds.Inc()
	}
	n.digestMu.Unlock()
	n.warn("digest rebuild escape hatch taken", nil, "urls", len(urls))
}

// digestCandidates returns the peers not dead whose (cached,
// possibly stale) digests advertise url. No network waits happen on this
// path unless a peer's digest was never fetched at all — and then all
// concurrent misses share one single-flight fetch.
func (n *Node) digestCandidates(peers []Peer, url string) []Peer {
	var candidates []Peer
	for _, p := range peers {
		if n.liveness(p.HTTP).dead() {
			continue
		}
		f := n.peerDigest(p)
		if f == nil {
			// No digest obtainable: treat as not advertising; the
			// origin path still serves us.
			continue
		}
		if f.MayContain(url) {
			candidates = append(candidates, p)
		}
	}
	return candidates
}

// peerDigest returns p's digest replica for a lookup:
//
//   - fresh replica: returned as is;
//   - stale replica: returned immediately (serve-stale) while a
//     background single-flight refresh is kicked off — the miss path
//     never blocks on digest traffic;
//   - no replica yet: the lookup joins the one in-flight fetch (first
//     contact is the only time a miss waits, and a 32-way herd still
//     dials once).
func (n *Node) peerDigest(p Peer) *digest.Filter {
	n.digestMu.Lock()
	pd := n.digests.peers[p.HTTP]
	if pd == nil {
		pd = &peerDigest{}
		n.digests.peers[p.HTTP] = pd
	}
	if pd.filter != nil && n.now().Sub(pd.fetchedAt) < n.digests.refresh {
		f := pd.filter
		n.digestMu.Unlock()
		return f
	}
	if pd.filter != nil {
		// Stale: kick a refresh if none is running, answer from the
		// stale replica either way.
		n.startDigestFlightLocked(p, pd)
		f := pd.filter
		n.digestMu.Unlock()
		n.om.digestStale.Inc()
		return f
	}
	// First contact: join the single flight.
	n.startDigestFlightLocked(p, pd)
	wait := pd.inflight
	n.digestMu.Unlock()
	<-wait
	n.digestMu.Lock()
	f := pd.filter
	n.digestMu.Unlock()
	return f
}

// startDigestFlightLocked starts the single-flight refresh for pd unless
// one is already running. Caller holds digestMu.
func (n *Node) startDigestFlightLocked(p Peer, pd *peerDigest) {
	if pd.inflight != nil {
		return
	}
	pd.inflight = make(chan struct{})
	n.wg.Add(1)
	go n.digestFlight(p, pd)
}

// digestFlight is the one revalidation in flight for a peer: it syncs
// the replica (delta when possible, full otherwise), publishes the
// result, and wakes any first-contact waiters.
func (n *Node) digestFlight(p Peer, pd *peerDigest) {
	defer n.wg.Done()

	n.digestMu.Lock()
	var since uint64
	var base *digest.Filter
	if pd.filter != nil {
		since = pd.gen
		base = pd.filter.Clone()
	}
	n.digestMu.Unlock()

	f, gen, applied, err := n.fetchDigestSince(p.HTTP, since, base)

	n.digestMu.Lock()
	if err == nil {
		pd.filter, pd.gen, pd.fetchedAt = f, gen, n.now()
		if applied == digestSyncDelta {
			pd.deltas++
		} else {
			pd.fulls++
		}
	}
	done := pd.inflight
	pd.inflight = nil
	n.digestMu.Unlock()

	// The outcome is on record before the waiters wake, so a lookup that
	// joined this flight returns with its fetch counted.
	if err != nil {
		n.warn("digest fetch failed", nil, "peer", p.HTTP, "err", err)
		n.reportFailure(p.HTTP)
		n.om.peerFailures[pfDigestFetch].Inc()
	} else {
		n.om.digestApplied[applied].Inc()
		n.reportSuccess(p.HTTP)
	}
	close(done)
}

// digestSync kinds, shared by the serve and apply metrics paths.
const (
	digestSyncFull = iota
	digestSyncDelta
)

// fetchDigestSince GETs a peer's digest versioned at since (0 = no
// replica, always answered with a full transfer) and returns the new
// replica filter and generation. A delta response is applied to base (a
// private clone of the current replica).
func (n *Node) fetchDigestSince(addr string, since uint64, base *digest.Filter) (*digest.Filter, uint64, int, error) {
	url := DigestURL + "?" + digestSinceParam + strconv.FormatUint(since, 10)
	body, err := n.fetchDigestBody(addr, url)
	if err != nil {
		return nil, 0, 0, err
	}
	s, err := digest.DecodeSync(body)
	if err != nil {
		return nil, 0, 0, err
	}
	if s.Delta != nil {
		if base == nil || s.Delta.From != since {
			return nil, 0, 0, fmt.Errorf("digest delta from %s starts at gen %d, replica at %d", addr, s.Delta.From, since)
		}
		if err := base.ApplyDelta(s.Delta); err != nil {
			return nil, 0, 0, err
		}
		return base, s.Delta.To, digestSyncDelta, nil
	}
	return s.Full, s.Gen, digestSyncFull, nil
}

// fetchDigestBody performs the digest GET and returns the response body.
func (n *Node) fetchDigestBody(addr, url string) ([]byte, error) {
	var body bytes.Buffer
	resp, err := n.exchange(addr, hproto.Request{URL: url}, 0, &body)
	if err != nil {
		return nil, err
	}
	if resp.Status != hproto.StatusOK {
		return nil, fmt.Errorf("digest fetch from %s: status %d", addr, resp.Status)
	}
	return body.Bytes(), nil
}

// refreshDigests is the background revalidator: on every tick it refreshes
// whichever known peer replicas have gone stale (single-flight per peer,
// dead peers skipped) and checks the own summary's escape hatch, so steady
// state keeps every digest fresh without a single miss ever paying for
// digest traffic. First-ever contact with a peer still happens lazily on
// the first miss that consults it.
func (n *Node) refreshDigests() {
	n.maybeRebuildOwn()

	peers := n.peerList()
	live := make(map[string]Peer, len(peers))
	for _, p := range peers {
		live[p.HTTP] = p
	}
	now := n.now()
	n.digestMu.Lock()
	for addr, pd := range n.digests.peers {
		p, ok := live[addr]
		if !ok {
			// The peer left the membership; drop its replica unless
			// a flight still owns it.
			if pd.inflight == nil {
				delete(n.digests.peers, addr)
			}
			continue
		}
		if pd.filter == nil || now.Sub(pd.fetchedAt) < n.digests.refresh {
			continue
		}
		if n.liveness(addr).dead() {
			continue
		}
		n.startDigestFlightLocked(p, pd)
	}
	n.digestMu.Unlock()
}

// serveDigestRequest answers a digest fetch, "eac:digest?since=G", with
// the versioned sync envelope — a compact delta when the change log
// covers the requester's generation, a full transfer otherwise (always
// for since=0, which the bare reserved URL also means).
func (n *Node) serveDigestRequest(conn io.Writer, url string) {
	if n.digests == nil {
		_ = hproto.WriteResponse(conn, hproto.Response{Status: hproto.StatusNotFound}, nil)
		return
	}
	n.maybeRebuildOwn()

	var (
		data []byte
		err  error
		kind = digestSyncFull
	)
	n.digestMu.Lock()
	own := n.digests.own
	if d, ok := own.Delta(parseDigestSince(url)); ok {
		data, err = d.MarshalBinary()
		kind = digestSyncDelta
	} else {
		data, err = digest.EncodeFull(own.Filter(), own.Generation())
	}
	n.digestMu.Unlock()
	if err != nil {
		n.warn("marshal digest failed", nil, "err", err)
		_ = hproto.WriteResponse(conn, hproto.Response{Status: hproto.StatusNotFound}, nil)
		return
	}
	n.om.digestServed[kind].Inc()
	n.om.digestBytes[kind].Add(int64(len(data)))
	if err := hproto.WriteResponse(conn, hproto.Response{
		Status:        hproto.StatusOK,
		ContentLength: int64(len(data)),
	}, bytes.NewReader(data)); err != nil {
		n.warn("write digest failed", nil, "err", err)
	}
}

// isDigestURL reports whether url addresses the reserved digest
// endpoint, bare or with a query.
func isDigestURL(url string) bool {
	return url == DigestURL || strings.HasPrefix(url, DigestURL+"?")
}

// parseDigestSince extracts the requester's replica generation from
// "eac:digest?since=G". The bare URL and a malformed query degrade to
// since=0 (a full transfer), never an error.
func parseDigestSince(url string) uint64 {
	rest, _ := strings.CutPrefix(url, DigestURL+"?")
	for _, kv := range strings.Split(rest, "&") {
		if v, isSince := strings.CutPrefix(kv, digestSinceParam); isSince {
			g, _ := strconv.ParseUint(v, 10, 64)
			return g
		}
	}
	return 0
}

// PeerDigestStatus describes one cached peer replica for the admin
// surface and eacctl.
type PeerDigestStatus struct {
	Generation uint64 `json:"generation"`
	// AgeMS is how long ago the replica was last synced, on the node's
	// clock; -1 when never fetched.
	AgeMS int64 `json:"age_ms"`
	Len   int   `json:"len"`
	// Refreshing reports an in-flight revalidation.
	Refreshing    bool  `json:"refreshing"`
	DeltasApplied int64 `json:"deltas_applied"`
	FullsApplied  int64 `json:"fulls_applied"`
}

// DigestReport is the GET /admin/digests body: the current state of the
// own summary and of every cached peer replica, so digest staleness
// across the group is visible from one seed node. The transfer, byte,
// rebuild and stale-serve counts are events and live on /metrics
// (eac_digest_*), not here.
type DigestReport struct {
	Enabled        bool                        `json:"enabled"`
	OwnGeneration  uint64                      `json:"own_generation"`
	OwnLen         int                         `json:"own_len"`
	Window         int                         `json:"window"`
	PinnedCounters int                         `json:"pinned_counters"`
	Peers          map[string]PeerDigestStatus `json:"peers,omitempty"`
}

// DigestReport snapshots the digest machinery (zero-valued when the node
// does not locate via digests).
func (n *Node) DigestReport() DigestReport {
	var rep DigestReport
	if n.digests == nil {
		return rep
	}
	now := n.now()
	n.digestMu.Lock()
	defer n.digestMu.Unlock()
	rep.Enabled = true
	rep.OwnGeneration = n.digests.own.Generation()
	rep.OwnLen = n.digests.own.Len()
	rep.Window = n.digests.own.Window()
	rep.PinnedCounters = n.digests.own.Pinned()
	rep.Peers = make(map[string]PeerDigestStatus, len(n.digests.peers))
	for addr, pd := range n.digests.peers {
		st := PeerDigestStatus{
			Generation:    pd.gen,
			AgeMS:         -1,
			Refreshing:    pd.inflight != nil,
			DeltasApplied: pd.deltas,
			FullsApplied:  pd.fulls,
		}
		if pd.filter != nil {
			st.Len = pd.filter.Len()
			st.AgeMS = now.Sub(pd.fetchedAt).Milliseconds()
		}
		rep.Peers[addr] = st
	}
	return rep
}
