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
	"time"

	"eacache/internal/cache"
	"eacache/internal/chash"
	"eacache/internal/core"
	"eacache/internal/digest"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

// Config configures a Proxy.
type Config struct {
	// ID names the proxy ("cache-0", ...). Must be unique in a group.
	ID string
	// Store is the proxy's cache. Required.
	Store *cache.Store
	// Scheme is the placement scheme. Required.
	Scheme core.Scheme
	// Location selects the document-location mechanism. Defaults to
	// LocateICP, the paper's setting.
	Location resolve.Location
	// Decisions, when set, records every placement verdict with its two
	// eq.-5 expiration ages, as a live node's /debug/placement log does.
	Decisions *obs.DecisionLog
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
	id        string
	store     *cache.Store
	location  resolve.Location
	summary   *digest.Incremental
	decisions *obs.DecisionLog

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
		cfg.Location = resolve.LocateICP
	}
	p := &Proxy{
		id:        cfg.ID,
		store:     cfg.Store,
		location:  cfg.Location,
		decisions: cfg.Decisions,
	}
	p.self = []resolve.Candidate{{ID: p.id, Ref: p}}
	if cfg.Location == resolve.LocateDigest {
		summary, err := digest.NewIncremental(digest.ExpectedEntries(cfg.Store.Capacity()), digest.FPRate, 0)
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
	if p.location == resolve.LocateHash {
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
	if parent != nil && p.location == resolve.LocateHash {
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
func (p *Proxy) icpLocate(url string) *Proxy {
	var hit *Proxy
	for _, n := range p.neighbours() {
		p.icp.QueriesSent++
		if n.handleICPQuery(url) {
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
// replacement state (an ICP lookup is not a hit).
func (p *Proxy) handleICPQuery(url string) bool {
	if p.store.Contains(url) {
		p.icp.RepliesHit++
		return true
	}
	p.icp.RepliesMiss++
	return false
}

// serve answers a neighbour's fetch through the engine's responder half
// (resolve.Engine.Serve): a remote hit, a parent resolution for a child
// (§3.3), or a hash home's resolution. The paper defines the parent
// exchange for one child-parent pair; in deeper hierarchies each hop
// applies the same pairwise rule against its immediate child.
func (p *Proxy) serve(url string, sizeHint int64, reqAge time.Duration, rslv bool, now time.Time) (resolve.Served, error) {
	ask := resolve.Ask{URL: url, SizeHint: sizeHint, ReqAge: reqAge, Resolve: rslv}
	if p.location == resolve.LocateHash {
		// The home owns the group's only copy and keeps every document
		// it resolves.
		ask.Home, ask.Keep = true, resolve.PlacementAlways
	}
	s, err := p.engine.Serve(nil, simStore{p}, ask, now)
	if s.Found {
		p.icp.RemoteServed++
	}
	return s, err
}

// fetchOrigin serves a group-wide miss from the simulated origin: a
// document of the size the trace recorded, or the paper's 4KB mean when
// the record has none. Like the paper's origin, it never fails.
func (p *Proxy) fetchOrigin(url string, sizeHint int64) cache.Document {
	if sizeHint <= 0 {
		sizeHint = 4096
	}
	return cache.Document{URL: url, Size: sizeHint}
}
