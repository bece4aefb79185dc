// Package resolve is the transport-agnostic request engine of the
// cooperative cache. It owns both halves of every exchange. The
// requester's half (Resolve) is the canonical request lifecycle: local
// lookup, group location through a pluggable Locator, remote-hit fetch
// with the requester's store rule, retry across responders, and the
// parent/origin miss paths. The responder's half (Serve) answers a
// neighbour's fetch: the responder's promote rule on a copy it holds,
// the hash home's real hit, and, when asked to resolve a miss, the
// upstream fetch and the parent's (or the home's) keep rule. Both are
// parameterized over narrow LocalStore, Holder and Transport interfaces,
// and every verdict of every role leaves through one Hooks.OnPlacement.
//
// Both execution stacks drive this one engine: the deterministic
// in-process simulator (internal/proxy, simulated clock and latency
// model) and the live networked node (internal/netnode, real sockets,
// health tracking, persistence, telemetry). The paper's contribution is
// the placement decision; keeping the surrounding lifecycle in exactly
// one place is what makes the sim↔live parity test (internal/parity) a
// meaningful regression gate.
package resolve

import (
	"fmt"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// Candidate is one group member believed to hold (or to be responsible
// for) a document. ID is the member's name on its stack — a proxy ID in
// the simulator, a fetch (TCP) address on the live node. Ref optionally
// carries the transport's handle for the member (e.g. the *proxy.Proxy
// itself in-process), so Transport.FetchRemote does not need a lookup.
type Candidate struct {
	ID  string
	Ref any
}

// Placement overrides the scheme-driven store decision for location
// mechanisms whose placement is structural rather than negotiated.
type Placement int

// Placement modes.
const (
	// PlacementScheme lets the configured core.Scheme decide, as ICP
	// and digest location do.
	PlacementScheme Placement = iota
	// PlacementNever forbids the requester from keeping a copy on any
	// path: under hash routing the document's home node owns the only
	// copy.
	PlacementNever
	// PlacementAlways forces a copy on the miss path: under hash
	// routing the requester IS the home node (or the acting home while
	// the real one is dead), so the fetched copy must land here.
	PlacementAlways
)

// Located is a Locator's answer for one URL.
type Located struct {
	// Candidates are the members to try, in preference order.
	Candidates []Candidate
	// Resolve asks the candidate to resolve a local miss itself (serve
	// from its cache or fetch upstream and report the body's source)
	// instead of answering not-found — hash routing's home-node
	// contract, the same exchange a hierarchical child has with its
	// parent.
	Resolve bool
	// Placement overrides the requester-side store rule.
	Placement Placement
}

// Locator is a document-location strategy: ICP fan-out, Summary-Cache
// digest consultation, or consistent-hash home routing. rctx is the
// caller's request context (the live node threads its *obs.Trace
// through it; the simulator passes nil) and is forwarded verbatim.
type Locator interface {
	Locate(rctx any, url string, now time.Time) Located
}

// LocalStore is the engine's view of the requester's own cache.
type LocalStore interface {
	// Lookup returns a servable (present and fresh) copy of url,
	// updating recency state on a hit.
	Lookup(rctx any, url string, now time.Time) (cache.Document, bool)
	// ExpirationAge is the cache's contention signal — the expiration
	// age piggybacked on every exchange (cache.NoContention when the
	// cache has no eviction evidence).
	ExpirationAge(now time.Time) time.Duration
	// StoreCopy stores doc, reporting whether it was kept (documents
	// over capacity are served but not stored).
	StoreCopy(doc cache.Document, now time.Time) bool
}

// FetchStatus classifies one remote fetch attempt.
type FetchStatus int

// Fetch statuses.
const (
	// FetchOK: the document was transferred.
	FetchOK FetchStatus = iota
	// FetchNotFound: the responder answered but does not hold (and
	// could not resolve) the document — a digest false hit or an
	// eviction race, never the responder's fault.
	FetchNotFound
	// FetchFailed: the transport broke mid-exchange — evidence against
	// the responder, and grounds for falling back to the miss path.
	FetchFailed
)

// Remote is a completed fetch from a group member.
type Remote struct {
	// Doc is the transferred document.
	Doc cache.Document
	// ResponderAge is the expiration age the responder piggybacked.
	ResponderAge time.Duration
	// FromGroup reports whether the body came from a cache (true) or
	// had to be resolved from the origin by the responder (false) — the
	// distinction between a remote hit and a miss served through a
	// parent or home node.
	FromGroup bool
}

// Transport performs the engine's remote operations. Implementations
// own their sockets (or in-process calls), their retry budgets below a
// single exchange, and their error wrapping; the engine returns
// Transport errors verbatim.
type Transport interface {
	// FetchRemote transfers url from candidate c, piggybacking reqAge.
	// resolve forwards Located.Resolve.
	FetchRemote(rctx any, c Candidate, url string, sizeHint int64, reqAge time.Duration, resolve bool, now time.Time) (Remote, FetchStatus)
	// ParentID returns the hierarchical parent's name and whether one
	// is configured.
	ParentID() (string, bool)
	// FetchParent resolves a group-wide miss through the parent.
	FetchParent(rctx any, url string, sizeHint int64, reqAge time.Duration, now time.Time) (Remote, error)
	// FetchOrigin resolves a group-wide miss against the origin. A
	// transport with no origin says so in its error.
	FetchOrigin(rctx any, url string, sizeHint int64, reqAge time.Duration, now time.Time) (cache.Document, error)
}

// Role is the side of an exchange a placement verdict belongs to
// (paper §3.3): the requester decides whether to store the copy it
// fetched, the responder whether to promote the copy it served, and a
// parent (or hash home) whether to keep a copy it resolved upstream.
type Role int

// Roles, in the order decision records and metric labels list them.
const (
	RoleRequester Role = iota
	RoleResponder
	RoleParent
)

// String names the role as decision records and metric labels do.
func (r Role) String() string {
	switch r {
	case RoleRequester:
		return obs.RoleRequester
	case RoleResponder:
		return obs.RoleResponder
	case RoleParent:
		return obs.RoleParent
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Verdict names a verdict of this role: yes is a responder's promote and
// any other role's accept, no is reject.
func (r Role) Verdict(yes bool) string {
	switch {
	case !yes:
		return obs.DecisionReject
	case r == RoleResponder:
		return obs.DecisionPromote
	default:
		return obs.DecisionAccept
	}
}

// Hooks observes the lifecycle's decision points: the simulator maps
// them to placement decision records and ICP statistics, the live node to
// telemetry spans, the placement-decision audit log and robustness
// counters. A nil Hooks is valid and observes nothing.
type Hooks interface {
	// OnPlacement fires once per placement verdict of any role: the
	// requester's on a remote hit, a parent fetch and an origin fetch,
	// the responder's on each copy it serves from its cache, the
	// parent's (or home's) on each copy it resolves upstream. localAge
	// is the deciding node's own expiration age, peerAge the one the
	// other side piggybacked (cache.NoContention on an origin fetch).
	// verdict is true for a store, promote or keep, whether or not the
	// copy fit (a too-large document is accepted by the scheme but not
	// stored); size is the document's size, the feasibility input of
	// the decision.
	OnPlacement(rctx any, role Role, url string, size int64, localAge, peerAge time.Duration, verdict bool, now time.Time)
	// OnFalseHit fires when a candidate answered not-found.
	OnFalseHit(rctx any, c Candidate, url string)
	// OnRetry fires before each candidate after the first.
	OnRetry(rctx any)
	// OnFallback fires when the request degrades: with a nil err when
	// every candidate fetch failed (transport errors, not not-founds) and
	// the miss path takes over, with the parent's error when a failed
	// parent resolution is retried against the origin (DegradeToOrigin).
	OnFallback(rctx any, url string, err error)
}

// nopHooks is the nil-Hooks stand-in, so the engine body never
// nil-checks at each call site.
type nopHooks struct{}

func (nopHooks) OnPlacement(any, Role, string, int64, time.Duration, time.Duration, bool, time.Time) {
}
func (nopHooks) OnFalseHit(any, Candidate, string) {}
func (nopHooks) OnRetry(any)                       {}
func (nopHooks) OnFallback(any, string, error)     {}

// Result describes how one request was served.
type Result struct {
	// Outcome classifies the request (local hit, remote hit, miss).
	Outcome metrics.Outcome
	// Doc is the served document.
	Doc cache.Document
	// Responder is the Candidate.ID (or parent ID) that supplied a
	// group-served body, or "" for local hits and origin misses.
	Responder string
	// Stored reports whether the requester kept a local copy.
	Stored bool
	// Promoted reports whether the responder refreshed its copy
	// instead (the scheme's responder-side rule).
	Promoted bool
	// Coalesced reports that this request was served as a single-flight
	// follower: a concurrent resolution of the same URL led the fetch
	// and this request shared its body and placement decision (the
	// Stored/Promoted fields are the leader's).
	Coalesced bool
}

// Engine runs the canonical request lifecycle. Configure one per node;
// Resolve is safe for concurrent use iff the injected dependencies are.
type Engine struct {
	// ID prefixes the engine's own errors ("netnode n1", "proxy cache-0").
	ID string
	// Store is the requester's cache. Required.
	Store LocalStore
	// Scheme is the placement scheme. Required.
	Scheme core.Scheme
	// Locator finds group copies; nil skips group location entirely.
	Locator Locator
	// Transport performs remote fetches. Required.
	Transport Transport
	// Hooks observes decision points; nil observes nothing.
	Hooks Hooks
	// Coalescer, when set, collapses concurrent misses for one URL into
	// a single leader resolution (single-flight, see coalesce.go). Nil
	// disables coalescing; serialized request streams behave
	// identically either way, which the sim↔live parity gate checks.
	Coalescer *Coalescer
	// DegradeToOrigin sends a failed parent resolution to the origin
	// instead of failing the request — the live node's availability
	// posture when it knows an origin. The simulator keeps false: a
	// parent failure there is a configuration bug that must surface.
	DegradeToOrigin bool
}

// Resolve serves one request at time now: local lookup, group location
// and remote fetch with the scheme's (or the Placement override's)
// store/promote decisions, then the parent/origin miss path.
func (e *Engine) Resolve(rctx any, url string, sizeHint int64, now time.Time) (Result, error) {
	if url == "" {
		return Result{}, fmt.Errorf("%s: empty URL", e.ID)
	}
	hooks := e.hooks()

	// 1. Local cache.
	if doc, ok := e.Store.Lookup(rctx, url, now); ok {
		return Result{Outcome: metrics.LocalHit, Doc: doc}, nil
	}

	// Everything below the local lookup is the miss path, and under a
	// Coalescer it runs single-flight: one leader per URL, followers
	// share the leader's result.
	if e.Coalescer != nil {
		return e.resolveCoalesced(rctx, hooks, url, sizeHint, now)
	}
	return e.resolveMissPath(rctx, hooks, url, sizeHint, now)
}

// resolveMissPath is the lifecycle below a local miss: group location
// and remote fetch with the scheme's (or the Placement override's)
// store/promote decisions, then the parent/origin miss path.
func (e *Engine) resolveMissPath(rctx any, hooks Hooks, url string, sizeHint int64, now time.Time) (Result, error) {
	// The requester's expiration age rides on every remote exchange
	// from here on. It is a pure read; nothing below mutates the local
	// store before the placement decision.
	reqAge := e.Store.ExpirationAge(now)

	// 2. Locate the document in the group and fetch from the first
	// candidate that actually delivers, retrying across the rest.
	var loc Located
	if e.Locator != nil {
		loc = e.Locator.Locate(rctx, url, now)
	}
	failed := false
	for i, c := range loc.Candidates {
		if i > 0 {
			hooks.OnRetry(rctx)
		}
		rem, status := e.Transport.FetchRemote(rctx, c, url, sizeHint, reqAge, loc.Resolve, now)
		switch status {
		case FetchOK:
			return e.remoteHit(rctx, hooks, c, url, loc.Placement, rem, reqAge, now), nil
		case FetchNotFound:
			hooks.OnFalseHit(rctx, c, url)
		default: // FetchFailed
			failed = true
		}
	}
	if failed {
		// Every copy holder broke mid-exchange: degrade to the miss
		// path rather than failing the request.
		hooks.OnFallback(rctx, url, nil)
	}

	// 3. Group-wide miss.
	return e.resolveMiss(rctx, hooks, url, sizeHint, reqAge, loc.Placement, now)
}

// remoteHit applies the requester-side rule to a completed group fetch.
func (e *Engine) remoteHit(rctx any, hooks Hooks, c Candidate, url string, placement Placement, rem Remote, reqAge time.Duration, now time.Time) Result {
	res := Result{Outcome: metrics.RemoteHit, Doc: rem.Doc, Responder: c.ID}
	if placement == PlacementNever {
		// Hash routing: the home node owns placement outright. The
		// body's source decides the outcome — a cache body is a group
		// hit, an origin-resolved body is a miss served through the
		// home.
		if !rem.FromGroup {
			res.Outcome = metrics.Miss
		}
		hooks.OnPlacement(rctx, RoleRequester, url, rem.Doc.Size, reqAge, rem.ResponderAge, false, now)
		return res
	}
	decision := e.Scheme.OnRemoteHit(reqAge, rem.ResponderAge)
	if decision.StoreAtRequester {
		res.Stored = e.Store.StoreCopy(rem.Doc, now)
	}
	res.Promoted = decision.PromoteAtResponder
	hooks.OnPlacement(rctx, RoleRequester, url, rem.Doc.Size, reqAge, rem.ResponderAge, decision.StoreAtRequester, now)
	return res
}

// resolveMiss is the group-wide miss path: through the parent when one
// is configured (§3.3), otherwise straight from the origin, with the
// scheme's (or the Placement override's) store rule at the requester.
func (e *Engine) resolveMiss(rctx any, hooks Hooks, url string, sizeHint int64, reqAge time.Duration, placement Placement, now time.Time) (Result, error) {
	if pid, ok := e.Transport.ParentID(); ok {
		rem, err := e.Transport.FetchParent(rctx, url, sizeHint, reqAge, now)
		if err == nil {
			res := Result{Outcome: metrics.Miss, Doc: rem.Doc}
			var store bool
			if rem.FromGroup {
				// Some cache up the hierarchy held it: a group hit,
				// judged by the remote-hit rule against the age the
				// parent piggybacked.
				res.Outcome = metrics.RemoteHit
				res.Responder = pid
				store = e.Scheme.OnRemoteHit(reqAge, rem.ResponderAge).StoreAtRequester
			} else {
				// The parent went to the origin: the miss rule, which
				// guarantees the fresh copy lands somewhere.
				store = e.Scheme.OnMissViaParent(reqAge, rem.ResponderAge)
			}
			store = placement.apply(store)
			if store {
				res.Stored = e.Store.StoreCopy(rem.Doc, now)
			}
			hooks.OnPlacement(rctx, RoleRequester, url, rem.Doc.Size, reqAge, rem.ResponderAge, store, now)
			return res, nil
		}
		if !e.DegradeToOrigin {
			return Result{}, err
		}
		hooks.OnFallback(rctx, url, err)
	}

	doc, err := e.Transport.FetchOrigin(rctx, url, sizeHint, reqAge, now)
	if err != nil {
		return Result{}, err
	}
	res := Result{Outcome: metrics.Miss, Doc: doc}
	store := placement.apply(e.Scheme.OnOriginFetch(reqAge))
	if store {
		res.Stored = e.Store.StoreCopy(doc, now)
	}
	hooks.OnPlacement(rctx, RoleRequester, url, doc.Size, reqAge, cache.NoContention, store, now)
	return res, nil
}

// hooks returns the engine's Hooks, or the no-op stand-in.
func (e *Engine) hooks() Hooks {
	if e.Hooks == nil {
		return nopHooks{}
	}
	return e.Hooks
}

// Holder is a responder's view of its own cache: the store operations
// only the serving side of an exchange makes. It is kept apart from
// LocalStore so that a store which only ever requests need not implement
// it; a responder passes its Holder to each Serve.
type Holder interface {
	// Peek returns a servable copy of url without touching replacement
	// state: a copy served to a neighbour is refreshed only if the
	// responder rule promotes it.
	Peek(url string, now time.Time) (cache.Document, bool)
	// Promote refreshes url's replacement state, the responder rule's
	// promote verdict.
	Promote(url string, now time.Time)
	// Keep stores a copy the responder resolved upstream, reporting
	// whether it stayed.
	Keep(doc cache.Document, now time.Time) bool
}

// Ask is one exchange as its responder received it.
type Ask struct {
	URL      string
	SizeHint int64
	// ReqAge is the expiration age the requester piggybacked.
	ReqAge time.Duration
	// Resolve is the requester's Located.Resolve: on a miss, fetch the
	// document upstream (through this node's parent, else from the
	// origin) and serve it, instead of answering not-found.
	Resolve bool
	// Home marks this node as the URL's hash home (or acting home): its
	// copy is the group's only one, so serving it is a real hit, not a
	// negotiable promotion.
	Home bool
	// Keep decides whether a copy resolved upstream stays here:
	// PlacementScheme applies Scheme.OnParentResolve (paper §3.3);
	// PlacementAlways and PlacementNever are structural, as for a hash
	// home, which keeps what it resolves, or a node that must not grow.
	Keep Placement
}

// Served is a responder's answer to one exchange.
type Served struct {
	// Doc is the document served when Found.
	Doc   cache.Document
	Found bool
	// Age is the responder's expiration age, piggybacked on every
	// answer, a not-found one included.
	Age time.Duration
	// Resolved reports that the body was fetched upstream rather than
	// served from this node's cache.
	Resolved bool
	// FromGroup reports that the body came from a cache, this node's or
	// one above it, rather than from the origin.
	FromGroup bool
	// Kept is the keep verdict on a resolved copy.
	Kept bool
}

// Serve is the responder's half of one exchange. It reads the node's
// expiration age once. A copy the node holds is served: under hash
// routing as a real hit, otherwise peeked and promoted iff the scheme's
// responder rule says so. A miss with ask.Resolve set is fetched through
// the Transport's parent, else its origin, and kept by ask.Keep. An
// upstream error is returned verbatim with no body: a responder never
// degrades from a failed parent to the origin, the requester decides
// where to go next.
func (e *Engine) Serve(rctx any, h Holder, ask Ask, now time.Time) (Served, error) {
	hooks := e.hooks()
	out := Served{Age: e.Store.ExpirationAge(now)}
	if ask.Home {
		out.Doc, out.Found = e.Store.Lookup(rctx, ask.URL, now)
	} else if out.Doc, out.Found = h.Peek(ask.URL, now); out.Found {
		// Paper §3.4: refresh this copy iff the requester's cache is
		// under more pressure than ours.
		promote := e.Scheme.OnRemoteHit(ask.ReqAge, out.Age).PromoteAtResponder
		if promote {
			h.Promote(ask.URL, now)
		}
		hooks.OnPlacement(rctx, RoleResponder, ask.URL, out.Doc.Size, out.Age, ask.ReqAge, promote, now)
	}
	if out.Found || !ask.Resolve {
		out.FromGroup = out.Found
		return out, nil
	}

	// The node's own age rides upstream: each hop of a deeper hierarchy
	// applies the same pairwise rule against its immediate child.
	if _, ok := e.Transport.ParentID(); ok {
		rem, err := e.Transport.FetchParent(rctx, ask.URL, ask.SizeHint, out.Age, now)
		if err != nil {
			return out, err
		}
		out.Doc, out.FromGroup = rem.Doc, rem.FromGroup
	} else {
		doc, err := e.Transport.FetchOrigin(rctx, ask.URL, ask.SizeHint, out.Age, now)
		if err != nil {
			return out, err
		}
		out.Doc = doc
	}
	out.Found, out.Resolved = true, true
	out.Kept = ask.Keep.apply(e.Scheme.OnParentResolve(out.Age, ask.ReqAge))
	if out.Kept {
		h.Keep(out.Doc, now)
	}
	hooks.OnPlacement(rctx, RoleParent, ask.URL, out.Doc.Size, out.Age, ask.ReqAge, out.Kept, now)
	return out, nil
}

// apply overrides the scheme verdict where placement is structural.
func (p Placement) apply(store bool) bool {
	switch p {
	case PlacementNever:
		return false
	case PlacementAlways:
		return true
	default:
		return store
	}
}
