package proxy

// This file adapts the proxy to the shared resolution engine
// (internal/resolve): the engine owns the request lifecycle and every
// placement decision; the adapters below supply the simulator's store,
// in-process transport, locator strategies, and trace/ICP-stat hooks.
// The live node (internal/netnode) wires the very same engine over real
// sockets — keeping both request paths behaviourally identical is what
// the sim↔live parity test checks.

import (
	"time"

	"eacache/internal/cache"
	"eacache/internal/resolve"
)

// simStore is the engine's view of the proxy's cache.
type simStore struct{ p *Proxy }

var _ resolve.LocalStore = simStore{}

// Lookup serves a present-and-fresh copy, refreshing recency. A stale
// copy must not be served: it stays resident (to be overwritten by the
// re-fetch) but the request proceeds as a miss, without refreshing the
// stale entry's replacement state.
func (s simStore) Lookup(_ any, url string, now time.Time) (cache.Document, bool) {
	p := s.p
	doc, ok := p.store.Peek(url)
	if !ok {
		return cache.Document{}, false
	}
	if !doc.FreshAt(now) {
		p.trace(Event{Time: now, Kind: EventStaleLocal, Proxy: p.id, URL: url})
		return cache.Document{}, false
	}
	p.store.Get(url, now)
	return doc, true
}

func (s simStore) ExpirationAge(now time.Time) time.Duration {
	return s.p.store.ExpirationAge(now)
}

func (s simStore) StoreCopy(doc cache.Document, now time.Time) bool {
	return s.p.putIfFits(doc, now)
}

// simLocator dispatches to the proxy's configured location mechanism.
type simLocator struct{ p *Proxy }

var _ resolve.Locator = simLocator{}

// Locate implements resolve.Locator. Candidates carry the neighbour
// *Proxy in Ref so the transport needs no name lookup.
func (l simLocator) Locate(_ any, url string, now time.Time) resolve.Located {
	p := l.p
	switch p.location {
	case LocateDigest:
		var cands []resolve.Candidate
		for _, n := range p.digestLocate(url) {
			cands = append(cands, resolve.Candidate{ID: n.id, Ref: n})
		}
		return resolve.Located{Candidates: cands}
	case LocateHash:
		if p.hash == nil {
			// Unwired singleton: home for everything.
			return resolve.Located{Placement: resolve.PlacementAlways}
		}
		return p.hash.Locate(nil, url, now)
	default: // LocateICP
		if hit := p.icpLocate(url, now); hit != nil {
			return resolve.Located{Candidates: hit.self}
		}
		return resolve.Located{}
	}
}

// simTransport performs the engine's remote operations as direct
// in-process calls on the neighbour proxies.
type simTransport struct{ p *Proxy }

var _ resolve.Transport = simTransport{}

// FetchRemote implements resolve.Transport. With rslv set (hash
// routing) the candidate is the document's home node and resolves the
// miss itself; otherwise it serves from its cache or reports not-found
// (only a stale or colliding digest advertises a document the responder
// does not hold — ICP answers are exact in the synchronous simulator).
func (t simTransport) FetchRemote(_ any, c resolve.Candidate, url string, sizeHint int64, reqAge time.Duration, rslv bool, now time.Time) (resolve.Remote, resolve.FetchStatus) {
	responder := c.Ref.(*Proxy)
	if rslv {
		doc, age, fromCache, err := responder.resolveAsHome(url, sizeHint, reqAge, now)
		if err != nil {
			return resolve.Remote{}, resolve.FetchFailed
		}
		return resolve.Remote{Doc: doc, ResponderAge: age, FromGroup: fromCache}, resolve.FetchOK
	}
	doc, respAge, ok := responder.serveRemote(url, reqAge, now)
	if !ok {
		return resolve.Remote{ResponderAge: respAge}, resolve.FetchNotFound
	}
	return resolve.Remote{Doc: doc, ResponderAge: respAge, FromGroup: true}, resolve.FetchOK
}

func (t simTransport) ParentID() (string, bool) {
	if t.p.parent == nil {
		return "", false
	}
	return t.p.parent.id, true
}

func (t simTransport) FetchParent(_ any, url string, sizeHint int64, reqAge time.Duration, now time.Time) (resolve.Remote, error) {
	doc, parentAge, fromGroup, err := t.p.parent.resolveMiss(url, sizeHint, reqAge, now)
	if err != nil {
		return resolve.Remote{}, err
	}
	return resolve.Remote{Doc: doc, ResponderAge: parentAge, FromGroup: fromGroup}, nil
}

// HasOrigin returns true unconditionally: a missing origin surfaces as
// fetchOrigin's "no origin configured" error, whose string predates the
// engine.
func (t simTransport) HasOrigin() bool { return true }

func (t simTransport) FetchOrigin(_ any, url string, sizeHint int64, _ time.Duration, now time.Time) (cache.Document, error) {
	return t.p.fetchOrigin(url, sizeHint, now)
}

// simHooks maps the engine's decision points to placement trace events
// and ICP statistics. Traces record the actual stored/promoted effects
// (not the scheme verdict), exactly as the pre-engine proxy did.
type simHooks struct{ p *Proxy }

var _ resolve.Hooks = simHooks{}

func (h simHooks) OnLocalHit(_ any, url string, now time.Time) {
	h.p.trace(Event{Time: now, Kind: EventLocalHit, Proxy: h.p.id, URL: url})
}

func (h simHooks) OnRetry(any) {}

func (h simHooks) OnFalseHit(_ any, _ resolve.Candidate, _ string) {
	h.p.icp.DigestFalseHits++
}

func (h simHooks) OnRemoteHit(_ any, c resolve.Candidate, url string, _ int64, reqAge, respAge time.Duration, _, stored, promoted bool, now time.Time) {
	h.p.trace(Event{
		Time: now, Kind: EventRemoteFetch, Proxy: h.p.id, URL: url,
		Peer: c.ID, RequesterAge: reqAge, ResponderAge: respAge,
		Stored: stored, Promoted: promoted,
	})
}

func (h simHooks) OnFallback(any) {}

func (h simHooks) OnParentDegrade(any, string, error) {}

func (h simHooks) OnParentFetch(_ any, parentID, url string, _ int64, reqAge, parentAge time.Duration, _, _, stored bool, now time.Time) {
	h.p.trace(Event{
		Time: now, Kind: EventRemoteFetch, Proxy: h.p.id, URL: url,
		Peer: parentID, RequesterAge: reqAge, ResponderAge: parentAge,
		Stored: stored,
	})
}

func (h simHooks) OnOriginFetch(_ any, url string, _ int64, reqAge time.Duration, _, stored bool, now time.Time) {
	h.p.trace(Event{
		Time: now, Kind: EventOriginFetch, Proxy: h.p.id, URL: url,
		RequesterAge: reqAge, Stored: stored,
	})
}
