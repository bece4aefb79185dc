package proxy

// This file adapts the proxy to the shared resolution engine
// (internal/resolve): the engine owns the request lifecycle, the
// responder's half of every exchange and every placement decision; the
// adapters below supply the simulator's store, in-process transport,
// locator strategies, and decision/ICP-stat hooks.
// The live node (internal/netnode) wires the very same engine over real
// sockets — keeping both request paths behaviourally identical is what
// the sim↔live parity test checks.

import (
	"time"

	"eacache/internal/cache"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

// simStore is the engine's view of the proxy's cache.
type simStore struct{ p *Proxy }

var _ resolve.LocalStore = simStore{}

// Lookup serves a present copy, refreshing recency.
func (s simStore) Lookup(_ any, url string, now time.Time) (cache.Document, bool) {
	return s.p.store.Get(url, now)
}

func (s simStore) ExpirationAge(now time.Time) time.Duration {
	return s.p.store.ExpirationAge(now)
}

func (s simStore) StoreCopy(doc cache.Document, now time.Time) bool {
	return s.Keep(doc, now) == resolve.Stored
}

// simStore is also the responder's Holder.
var _ resolve.Holder = simStore{}

// Peek serves a present copy without touching replacement state.
func (s simStore) Peek(url string) (cache.Document, bool) {
	return s.p.store.Peek(url)
}

func (s simStore) Promote(url string, now time.Time) { s.p.store.Touch(url, now) }

// Keep stores doc, for the requester and the responder alike, treating
// over-capacity documents as uncacheable (served but not stored), the
// standard proxy behaviour.
func (s simStore) Keep(doc cache.Document, now time.Time) resolve.Disposition {
	if _, err := s.p.store.Put(doc, now); err != nil {
		return resolve.RefusedTooLarge
	}
	return resolve.Stored
}

// simLocator dispatches to the proxy's configured location mechanism.
type simLocator struct{ p *Proxy }

var _ resolve.Locator = simLocator{}

// Locate implements resolve.Locator. Candidates carry the neighbour
// *Proxy in Ref so the transport needs no name lookup.
func (l simLocator) Locate(_ any, url string, now time.Time) resolve.Located {
	p := l.p
	switch p.location {
	case resolve.LocateDigest:
		var cands []resolve.Candidate
		for _, n := range p.digestLocate(url) {
			cands = append(cands, resolve.Candidate{ID: n.id, Ref: n})
		}
		return resolve.Located{Candidates: cands}
	case resolve.LocateHash:
		if p.hash == nil {
			// Unwired singleton: home for everything.
			return resolve.Located{Placement: resolve.PlacementAlways}
		}
		return p.hash.Locate(nil, url, now)
	default: // LocateICP
		if hit := p.icpLocate(url); hit != nil {
			return resolve.Located{Candidates: hit.self}
		}
		return resolve.Located{}
	}
}

// simTransport performs the engine's remote operations as direct
// in-process calls on the neighbour proxies.
type simTransport struct{ p *Proxy }

var _ resolve.Transport = simTransport{}

// FetchRemote implements resolve.Transport: the candidate answers
// through its own engine's responder half. With rslv set (hash routing)
// it is the document's home and resolves a miss itself; otherwise it
// serves from its cache or reports not-found (only a stale or colliding
// digest advertises a document the responder does not hold — ICP
// answers are exact in the synchronous simulator).
func (t simTransport) FetchRemote(_ any, c resolve.Candidate, url string, sizeHint int64, reqAge time.Duration, rslv bool, now time.Time) (resolve.Remote, resolve.FetchStatus) {
	s, err := c.Ref.(*Proxy).serve(url, sizeHint, reqAge, rslv, now)
	switch {
	case err != nil:
		return resolve.Remote{}, resolve.FetchFailed
	case !s.Found:
		return resolve.Remote{ResponderAge: s.Age}, resolve.FetchNotFound
	}
	return resolve.Remote{Doc: s.Doc, ResponderAge: s.Age, FromGroup: s.FromGroup}, resolve.FetchOK
}

func (t simTransport) ParentID() (string, bool) {
	if t.p.parent == nil {
		return "", false
	}
	return t.p.parent.id, true
}

func (t simTransport) FetchParent(_ any, url string, sizeHint int64, reqAge time.Duration, now time.Time) (resolve.Remote, error) {
	s, err := t.p.parent.serve(url, sizeHint, reqAge, true, now)
	if err != nil {
		return resolve.Remote{}, err
	}
	return resolve.Remote{Doc: s.Doc, ResponderAge: s.Age, FromGroup: s.FromGroup}, nil
}

func (t simTransport) FetchOrigin(_ any, url string, sizeHint int64, _ time.Duration, _ time.Time) (cache.Document, error) {
	return t.p.fetchOrigin(url, sizeHint), nil
}

// simHooks maps the engine's decision points to placement decision
// records and ICP statistics. A record carries the scheme's verdict and
// what the store did with the copy, exactly as the live node's hooks
// record it.
type simHooks struct{ p *Proxy }

var _ resolve.Hooks = simHooks{}

func (h simHooks) OnPlacement(_ any, role resolve.Role, url string, size int64, localAge, peerAge time.Duration, verdict bool, d resolve.Disposition, now time.Time) {
	if h.p.decisions == nil {
		return
	}
	outcome, reason := d.Outcome()
	h.p.decisions.Record(obs.Decision{
		Time: now, Node: h.p.id, URL: url, Role: role.String(), Verdict: role.Verdict(verdict),
		LocalAgeMS: obs.AgeMS(localAge), PeerAgeMS: obs.AgeMS(peerAge),
		SizeBytes: size, Outcome: outcome, Reason: reason,
	}, nil)
}

func (h simHooks) OnFalseHit(_ any, _ resolve.Candidate, _ string) {
	h.p.icp.DigestFalseHits++
}

func (h simHooks) OnRetry(any) {}

func (h simHooks) OnFallback(any, string, error) {}
