// Package proxy implements a cooperative caching proxy node: local cache
// lookup, ICP-style neighbour location, inter-proxy document fetch with
// expiration-age piggybacking, and the placement decision of the configured
// scheme (ad-hoc or EA). It is the deterministic in-process counterpart of
// the wire node in internal/netnode — the message sequence and the decision
// inputs are identical, only the transport differs.
package proxy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"eacache/internal/cache"
	"eacache/internal/chash"
	"eacache/internal/core"
	"eacache/internal/digest"
	"eacache/internal/resolve"
)

// Location is the shared document-location mechanism enum, aliased from
// internal/resolve so sim configurations, live-node configurations, and
// the proxyd -locate flag all speak one type.
type Location = resolve.Location

// Location mechanisms, re-exported for existing call sites.
const (
	// LocateICP queries every neighbour with an ICP message on each
	// local miss (the paper's setting).
	LocateICP = resolve.LocateICP
	// LocateDigest consults the neighbours' advertised Bloom-filter
	// summaries (Summary Cache).
	LocateDigest = resolve.LocateDigest
	// LocateHash routes every URL to its consistent-hash home node.
	LocateHash = resolve.LocateHash
)

// Origin models the origin servers behind the cache group. Trace-driven
// simulations know each document's size from the trace record, so the
// default origin materialises a document from the URL and size hint.
type Origin interface {
	// Fetch retrieves url from its origin server at time now. sizeHint
	// is the size recorded in the trace, or 0 when unknown.
	Fetch(url string, sizeHint int64, now time.Time) (cache.Document, error)
}

// SizeHintOrigin is an Origin that fabricates immortal documents of the
// hinted size (or the paper's 4KB average when the hint is missing). It
// never fails, matching the paper's assumption that any miss can be served
// by the origin, and never expires anything — the paper studies placement
// with coherence out of scope.
type SizeHintOrigin struct{}

var _ Origin = SizeHintOrigin{}

// Fetch implements Origin.
func (SizeHintOrigin) Fetch(url string, sizeHint int64, _ time.Time) (cache.Document, error) {
	if sizeHint <= 0 {
		sizeHint = 4096
	}
	return cache.Document{URL: url, Size: sizeHint}, nil
}

// TTLClass is one freshness class of a TTLOrigin.
type TTLClass struct {
	// Fraction of URLs (by hash) in this class.
	Fraction float64
	// TTL is the freshness lifetime assigned at fetch time; 0 means the
	// document never expires.
	TTL time.Duration
}

// TTLOrigin is an Origin that assigns each URL a deterministic freshness
// lifetime, modelling the coherence side of web caching: some content is
// dynamic and expires in minutes, some is stable for hours, most mid-90s
// content carried no expiry at all. Stale copies stop being served or
// advertised and are re-fetched on the next request.
type TTLOrigin struct {
	// Classes partition the URL space; fractions should sum to <= 1,
	// with the remainder immortal.
	Classes []TTLClass
}

var _ Origin = TTLOrigin{}

// EraTTLOrigin returns a TTLOrigin with a mid-90s-shaped freshness mix:
// 10% of URLs expire in 5 minutes (dynamic pages), 30% in 1 hour (news,
// listings), and the rest never.
func EraTTLOrigin() TTLOrigin {
	return TTLOrigin{Classes: []TTLClass{
		{Fraction: 0.10, TTL: 5 * time.Minute},
		{Fraction: 0.30, TTL: time.Hour},
	}}
}

// Fetch implements Origin.
func (o TTLOrigin) Fetch(url string, sizeHint int64, now time.Time) (cache.Document, error) {
	if sizeHint <= 0 {
		sizeHint = 4096
	}
	doc := cache.Document{URL: url, Size: sizeHint}
	if ttl := o.ttlFor(url); ttl > 0 {
		doc.Expires = now.Add(ttl)
	}
	return doc, nil
}

// TTLFor exposes the class lifetime assigned to url (0 = immortal).
func (o TTLOrigin) TTLFor(url string) time.Duration { return o.ttlFor(url) }

func (o TTLOrigin) ttlFor(url string) time.Duration {
	h := fnv.New32a()
	_, _ = h.Write([]byte(url))
	u := float64(h.Sum32()) / float64(1<<32)
	acc := 0.0
	for _, c := range o.Classes {
		acc += c.Fraction
		if u < acc {
			return c.TTL
		}
	}
	return 0
}

// Config configures a Proxy.
type Config struct {
	// ID names the proxy ("cache-0", ...). Must be unique in a group.
	ID string
	// Store is the proxy's cache. Required.
	Store *cache.Store
	// Scheme is the placement scheme. Required.
	Scheme core.Scheme
	// Origin serves group-wide misses. Required for proxies that resolve
	// misses (all distributed proxies and hierarchy roots).
	Origin Origin
	// Location selects the document-location mechanism. Defaults to
	// LocateICP, the paper's setting.
	Location Location
	// Digest tunes the Summary-Cache digests when Location is
	// LocateDigest.
	Digest digest.Config
	// Tracer, when set, observes every placement-relevant step — the
	// exchanged expiration ages and the store/promote decisions.
	Tracer Tracer
}

// Result describes how one client request was served. It is the
// engine's result type verbatim — the proxy adds nothing to it.
type Result = resolve.Result

// ICPStats counts the protocol traffic a proxy generated and served.
type ICPStats struct {
	// QueriesSent is the number of ICP queries this proxy issued (one
	// per neighbour per local miss).
	QueriesSent int64
	// RepliesHit / RepliesMiss count the replies this proxy produced for
	// neighbours' queries.
	RepliesHit  int64
	RepliesMiss int64
	// RemoteServed counts documents this proxy transferred to group
	// members (remote hits it answered plus parent resolutions).
	RemoteServed int64
	// DigestChecks counts local digest consultations (LocateDigest).
	DigestChecks int64
	// DigestFalseHits counts fetch attempts against a neighbour whose
	// stale or colliding digest advertised a document it did not have.
	DigestFalseHits int64
	// DigestRebuilds counts full-URL-scan rebuilds of this proxy's own
	// summary. The summary is maintained incrementally from cache
	// events, so this stays 0 in steady state — it counts only the
	// counter-saturation escape hatch.
	DigestRebuilds int64
}

// Proxy is one cooperative cache node. It is not safe for concurrent use;
// the simulator is single-threaded per group and the live node (netnode)
// adds its own locking.
type Proxy struct {
	id       string
	store    *cache.Store
	scheme   core.Scheme
	origin   Origin
	location Location
	summary  *digest.Incremental
	tracer   Tracer

	siblings []*Proxy
	parent   *Proxy
	// self is this proxy as a neighbour's one-candidate ICP answer:
	// immutable, so every locate that hits here hands out the same slice.
	self []resolve.Candidate

	// engine is the shared resolution engine; Request delegates to it.
	engine *resolve.Engine
	// hash is the consistent-hash locator, built by SetSiblings when
	// location is LocateHash.
	hash *resolve.HashLocator

	icp ICPStats
}

// New builds a proxy from cfg.
func New(cfg Config) (*Proxy, error) {
	if cfg.ID == "" {
		return nil, errors.New("proxy: empty ID")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("proxy %s: nil store", cfg.ID)
	}
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("proxy %s: nil scheme", cfg.ID)
	}
	if cfg.Location == 0 {
		cfg.Location = LocateICP
	}
	p := &Proxy{
		id:       cfg.ID,
		store:    cfg.Store,
		scheme:   cfg.Scheme,
		origin:   cfg.Origin,
		location: cfg.Location,
		tracer:   cfg.Tracer,
	}
	p.self = []resolve.Candidate{{ID: p.id, Ref: p}}
	if cfg.Location == LocateDigest {
		dc := cfg.Digest.WithDefaults(cfg.Store.Capacity())
		summary, err := digest.NewIncremental(dc.Expected, dc.FPRate, 0)
		if err != nil {
			return nil, fmt.Errorf("proxy %s: %w", cfg.ID, err)
		}
		p.summary = summary
		// The summary is maintained from the store's event sink — every
		// Put/Evict/Remove is O(k) counter work, the same wiring the live
		// node uses — after one seeding scan of whatever the store already
		// holds.
		summary.Seed(cfg.Store.URLs())
		cfg.Store.SetEventSink(p.digestEvent)
	}
	p.engine = &resolve.Engine{
		ID:        fmt.Sprintf("proxy %s", cfg.ID),
		Store:     simStore{p},
		Scheme:    cfg.Scheme,
		Locator:   simLocator{p},
		Transport: simTransport{p},
		Hooks:     simHooks{p},
		// The simulator is single-threaded per run, so single-flight
		// coalescing never fires; it is wired anyway so the sim and live
		// engines are configured identically and the parity gate covers
		// the (serialized = no-op) property.
		Coalescer: resolve.NewCoalescer(),
		// A parent failure in the simulator is a configuration bug that
		// must surface, not a condition to degrade around.
		DegradeToOrigin: false,
	}
	return p, nil
}

// ID returns the proxy's identifier.
func (p *Proxy) ID() string { return p.id }

// Store exposes the proxy's cache for inspection.
func (p *Proxy) Store() *cache.Store { return p.store }

// ICP returns a copy of the protocol counters.
func (p *Proxy) ICP() ICPStats { return p.icp }

// SetSiblings wires the proxy's same-level neighbours (peers in the
// distributed architecture, siblings in the hierarchical one). The proxy
// itself must not be in the list.
func (p *Proxy) SetSiblings(siblings ...*Proxy) error {
	for _, s := range siblings {
		if s == p {
			return fmt.Errorf("proxy %s: cannot be its own sibling", p.id)
		}
	}
	p.siblings = append([]*Proxy(nil), siblings...)
	if p.location == LocateHash {
		// Build the group's hash ring over proxy IDs. The live node
		// builds its ring over the same member names (netnode HashName),
		// so sim and live route URLs to identical homes.
		members := make([]string, 0, len(p.siblings)+1)
		byID := make(map[string]*Proxy, len(p.siblings))
		members = append(members, p.id)
		for _, s := range p.siblings {
			members = append(members, s.id)
			byID[s.id] = s
		}
		ring, err := chash.New(0, members...)
		if err != nil {
			return fmt.Errorf("proxy %s: hash ring: %w", p.id, err)
		}
		p.hash = &resolve.HashLocator{
			Ring: ring,
			Self: p.id,
			Candidate: func(member string) (resolve.Candidate, bool) {
				s, ok := byID[member]
				if !ok {
					return resolve.Candidate{}, false
				}
				// The synchronous simulator has no peer failures; every
				// ring member is always reachable.
				return resolve.Candidate{ID: s.id, Ref: s}, true
			},
		}
	}
	return nil
}

// SetParent wires the proxy's hierarchical parent (nil for distributed
// proxies and hierarchy roots).
func (p *Proxy) SetParent(parent *Proxy) error {
	if parent == p {
		return fmt.Errorf("proxy %s: cannot be its own parent", p.id)
	}
	if parent != nil && p.location == LocateHash {
		// Hash routing partitions the URL space across the group; a
		// hierarchical parent would reintroduce a second copy holder.
		return fmt.Errorf("proxy %s: hash location is incompatible with a hierarchical parent", p.id)
	}
	p.parent = parent
	return nil
}

// Parent returns the hierarchical parent, or nil.
func (p *Proxy) Parent() *Proxy { return p.parent }

// Request serves one client request arriving at this proxy at simulated
// time now, delegating the canonical lifecycle to the shared resolution
// engine (internal/resolve):
//
//  1. local lookup — a hit is served immediately (local hit);
//  2. group location — an ICP query to every sibling and the parent, a
//     consultation of the neighbours' advertised digests, or the URL's
//     consistent-hash home, per the configured Location — then the
//     document transfer with both expiration ages piggybacked and the
//     placement scheme's store/promote decisions (remote hit);
//  3. otherwise the miss is resolved from the origin — directly in the
//     distributed architecture, or through the parent in the hierarchical
//     one, with the scheme deciding placement at each hop (miss).
func (p *Proxy) Request(url string, sizeHint int64, now time.Time) (Result, error) {
	return p.engine.Resolve(nil, url, sizeHint, now)
}

// icpLocate runs the ICP exchange: one query per neighbour, first positive
// replier wins. Neighbour order is deterministic (siblings in wiring order,
// then the parent), standing in for "first reply to arrive".
func (p *Proxy) icpLocate(url string, now time.Time) *Proxy {
	var hit *Proxy
	for _, n := range p.neighbours() {
		p.icp.QueriesSent++
		if n.handleICPQuery(url, now) {
			if hit == nil {
				hit = n
			}
		}
	}
	return hit
}

// digestLocate consults the neighbours' advertised summaries without
// sending any messages. Every advertising neighbour is a candidate; the
// caller falls through candidates whose digest lied.
func (p *Proxy) digestLocate(url string) []*Proxy {
	var candidates []*Proxy
	for _, n := range p.neighbours() {
		p.icp.DigestChecks++
		if n.advertisedMayContain(url) {
			candidates = append(candidates, n)
		}
	}
	return candidates
}

// digestEvent is the cache event sink feeding the proxy's own summary:
// inserts count in, evictions and removals count out, refreshes of an
// already cached URL are membership no-ops.
func (p *Proxy) digestEvent(ev cache.Event) {
	switch ev.Kind {
	case cache.EventInsert:
		if !ev.Refresh {
			p.summary.Add(ev.Doc.URL)
		}
	case cache.EventEvict, cache.EventRemove:
		p.summary.Remove(ev.Doc.URL)
	}
}

// advertisedMayContain consults this proxy's published summary. The
// summary tracks the cache incrementally, so it is always current;
// the only remaining rebuild is the counter-saturation escape hatch.
// Note the summary advertises membership, not freshness — an expired
// resident copy is still advertised and surfaces as a false hit.
func (p *Proxy) advertisedMayContain(url string) bool {
	if p.summary == nil {
		// Neighbour not running digests: fall back to an exact answer
		// so mixed groups still work.
		return p.store.Contains(url)
	}
	if p.summary.NeedsRebuild() {
		p.summary.Rebuild(p.store.URLs())
		p.icp.DigestRebuilds++
	}
	return p.summary.MayContain(url)
}

// DigestAdvertisement returns the proxy's advertised summary encoded as
// the versioned full-sync envelope — byte-comparable with a live node's
// answer to "eac:digest?since=0". ok is false when the proxy does not
// locate via digests.
func (p *Proxy) DigestAdvertisement() ([]byte, bool, error) {
	if p.summary == nil {
		return nil, false, nil
	}
	data, err := digest.EncodeFull(p.summary.Filter(), p.summary.Generation())
	return data, true, err
}

func (p *Proxy) neighbours() []*Proxy {
	if p.parent == nil {
		return p.siblings
	}
	out := make([]*Proxy, 0, len(p.siblings)+1)
	out = append(out, p.siblings...)
	out = append(out, p.parent)
	return out
}

// handleICPQuery answers a neighbour's ICP query without touching
// replacement state (an ICP lookup is not a hit). Stale copies are not
// advertised, per RFC 2186's guidance that a HIT promises a servable
// object.
func (p *Proxy) handleICPQuery(url string, now time.Time) bool {
	if doc, ok := p.store.Peek(url); ok && doc.FreshAt(now) {
		p.icp.RepliesHit++
		return true
	}
	p.icp.RepliesMiss++
	return false
}

// serveRemote is the responder side of a remote hit: serve the document
// without implicitly refreshing it, then apply the scheme's responder rule —
// under ad-hoc the transfer counts as a hit (fresh lease of life), under EA
// the copy is promoted only if the responder's expiration age exceeds the
// requester's.
func (p *Proxy) serveRemote(url string, requesterAge time.Duration, now time.Time) (cache.Document, time.Duration, bool) {
	responderAge := p.store.ExpirationAge(now)
	doc, ok := p.store.Peek(url)
	if !ok || !doc.FreshAt(now) {
		return cache.Document{}, responderAge, false
	}
	if p.scheme.OnRemoteHit(requesterAge, responderAge).PromoteAtResponder {
		p.store.Touch(url, now)
	}
	p.icp.RemoteServed++
	return doc, responderAge, true
}

// resolveAsHome is the responder side of hash routing: this proxy is
// the URL's home node (or acting home) and owns the group's only copy.
// It serves from its cache — a real hit for the home's replacement
// state, so the copy is refreshed — or resolves the miss from the
// origin and keeps the fetched copy. fromCache distinguishes a group
// hit from a miss served through the home.
func (p *Proxy) resolveAsHome(url string, sizeHint int64, _ time.Duration, now time.Time) (cache.Document, time.Duration, bool, error) {
	age := p.store.ExpirationAge(now)
	if doc, ok := p.store.Peek(url); ok && doc.FreshAt(now) {
		p.store.Get(url, now)
		p.icp.RemoteServed++
		return doc, age, true, nil
	}
	doc, err := p.fetchOrigin(url, sizeHint, now)
	if err != nil {
		return cache.Document{}, age, false, err
	}
	p.putIfFits(doc, now)
	p.icp.RemoteServed++
	return doc, age, false, nil
}

// resolveMiss is the hierarchical parent's miss path (§3.3): obtain the
// document — from its own cache, its own parent, or the origin — store a
// copy iff the scheme's parent rule says the parent's copy would outlive
// the child's, and return the document with the parent's expiration age
// piggybacked. fromGroup reports whether some cache in the hierarchy
// already held the document (the child then counts a remote hit, not a
// miss).
//
// The paper defines the exchange for one child-parent pair; in deeper
// hierarchies each hop applies the same pairwise rule against its immediate
// child, keeping every decision local.
func (p *Proxy) resolveMiss(url string, sizeHint int64, childAge time.Duration, now time.Time) (cache.Document, time.Duration, bool, error) {
	myAge := p.store.ExpirationAge(now)

	// The parent may hold the document (always checked even though a
	// direct child's ICP query covered us, because deeper descendants
	// reach us only through this path).
	if doc, ok := p.store.Peek(url); ok && doc.FreshAt(now) {
		if p.scheme.OnRemoteHit(childAge, myAge).PromoteAtResponder {
			p.store.Touch(url, now)
		}
		p.icp.RemoteServed++
		return doc, myAge, true, nil
	}

	var (
		doc       cache.Document
		fromGroup bool
		err       error
	)
	if p.parent != nil {
		doc, _, fromGroup, err = p.parent.resolveMiss(url, sizeHint, myAge, now)
	} else {
		doc, err = p.fetchOrigin(url, sizeHint, now)
	}
	if err != nil {
		return cache.Document{}, myAge, false, err
	}
	stored := false
	if p.scheme.OnParentResolve(myAge, childAge) {
		stored = p.putIfFits(doc, now)
	}
	p.icp.RemoteServed++
	p.trace(Event{
		Time: now, Kind: EventParentResolve, Proxy: p.id, URL: url,
		RequesterAge: childAge, ResponderAge: myAge, Stored: stored,
	})
	return doc, myAge, fromGroup, nil
}

func (p *Proxy) fetchOrigin(url string, sizeHint int64, now time.Time) (cache.Document, error) {
	if p.origin == nil {
		return cache.Document{}, fmt.Errorf("proxy %s: no origin configured", p.id)
	}
	doc, err := p.origin.Fetch(url, sizeHint, now)
	if err != nil {
		return cache.Document{}, fmt.Errorf("proxy %s: origin fetch %s: %w", p.id, url, err)
	}
	return doc, nil
}

// putIfFits stores doc, treating over-capacity documents as uncacheable
// (served but not stored), the standard proxy behaviour.
func (p *Proxy) putIfFits(doc cache.Document, now time.Time) bool {
	_, err := p.store.Put(doc, now)
	return err == nil
}

// trace emits e to the configured tracer, if any.
func (p *Proxy) trace(e Event) {
	if p.tracer != nil {
		p.tracer.Trace(e)
	}
}
