package netnode

import (
	"net"
	"time"

	"eacache/internal/cache"
	"eacache/internal/hproto"
	"eacache/internal/icp"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.httpLn.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			n.warn("accept failed", nil, "err", err)
			continue
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

// serveConn is the responder side of the inter-proxy fetch: serve the
// document with this node's expiration age piggybacked on the response,
// applying the responder-side placement rule against the age piggybacked
// on the request. A request flagged Resolve makes this node act as a
// hierarchical parent: on a local miss it fetches the document from its
// own upstream, keeps a copy only if the §3.3 parent rule says so, and
// reports whether the body came from a cache or the origin.
func (n *Node) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.fetchTimeout))

	// The record is held to the end: its reader for the request (and a
	// pushed body), its synthetic body for the response.
	rec := getRec(conn)
	defer putRec(rec)
	req, err := hproto.ReadRequest(rec.br)
	if err != nil {
		n.warn("bad fetch request", nil, "err", err)
		return
	}
	if req.AgeClamped {
		n.om.clamps[clampAge].Inc()
		n.warn("clamped bad requester age", nil, "remote", conn.RemoteAddr().String())
	}
	if req.Push {
		// Migration handoff: the body still sits (partly) in the
		// record's reader.
		n.servePush(conn, rec, req)
		return
	}

	// The reserved digest URL serves this node's own cache digest as a
	// delta from ?since=<gen>; the bare URL means since=0.
	if isDigestURL(req.URL) {
		n.serveDigestRequest(conn, req.URL)
		return
	}

	// Remote-parented tracing: a sampled requester piggybacks its trace
	// context on the request, and this node continues the same trace —
	// same group-wide trace ID, the requester's record as parent — so the
	// whole exchange stitches into one timeline. A malformed or looping
	// context is dropped and counted, never fatal: tracing must not be
	// able to break the fetch path.
	var rtr *obs.Trace
	if req.Trace != "" {
		tc, perr := obs.ParseTraceContext(req.Trace)
		switch {
		case perr != nil:
			n.om.clamps[clampTrace].Inc()
			n.warn("dropped malformed trace context", nil, "remote", conn.RemoteAddr().String())
		case tc.Hop >= obs.MaxTraceHops:
			n.om.clamps[clampTrace].Inc()
			n.warn("dropped trace context at hop limit", nil, "trace", tc.TraceID)
		default:
			rtr = n.obs.StartRemoteTrace(n.id, req.URL, tc)
		}
	}
	serveSpan := rtr.OpenSpan(obs.StageServe, time.Now())

	respAge := n.store.ExpirationAge(n.now())
	var (
		doc cache.Document
		ok  bool
	)
	if n.location == resolve.LocateHash {
		// Hash routing: this node is the URL's home and owns the
		// group's only copy — serving it is a real hit for the home's
		// replacement state, not a negotiable promotion.
		doc, ok = n.store.Get(req.URL, n.now())
	} else {
		doc, ok = n.store.Peek(req.URL)
		if ok {
			// The responder-side EA rule: refresh this copy's replacement
			// state iff the requester's cache is under more pressure than
			// ours (paper §3.4). Counted, audited, and stamped on the
			// remote-parented trace like every placement decision.
			if n.scheme.OnRemoteHit(req.RequesterAge, respAge).PromoteAtResponder {
				n.store.Touch(req.URL, n.now())
				n.om.decisions[roleResponder][decisionPromote].Inc()
				n.auditDecision(rtr, roleResponder, req.URL, obs.DecisionPromote, doc.Size, respAge, req.RequesterAge)
			} else {
				n.om.decisions[roleResponder][decisionReject].Inc()
				n.auditDecision(rtr, roleResponder, req.URL, obs.DecisionReject, doc.Size, respAge, req.RequesterAge)
			}
		}
	}

	switch {
	case ok:
		err = hproto.WriteResponse(conn, hproto.Response{
			Status:        hproto.StatusOK,
			ResponderAge:  respAge,
			ContentLength: doc.Size,
			Source:        hproto.SourceCache,
			Trace:         rtr.Context(),
		}, rec.zeros(doc.Size))
		if rtr != nil {
			rtr.Outcome = outcomeServeHit
			rtr.SizeBytes = doc.Size
		}
	case req.Resolve:
		err = n.resolveAndServe(conn, rec, req, respAge, rtr)
	default:
		err = hproto.WriteResponse(conn, hproto.Response{
			Status:       hproto.StatusNotFound,
			ResponderAge: respAge,
			Trace:        rtr.Context(),
		}, nil)
		if rtr != nil {
			rtr.Outcome = outcomeServeMiss
		}
	}
	if err != nil {
		n.warn("write fetch response failed", rtr, "err", err)
		rtr.SpanErr(err)
	}
	if rtr != nil {
		rtr.CloseSpan(serveSpan, time.Since(rtr.Start))
		rtr.RequesterAgeMS = obs.AgeMS(req.RequesterAge)
		rtr.ResponderAgeMS = obs.AgeMS(respAge)
		n.obs.Finish(rtr)
	}
}

// Responder-side trace outcomes (requester-side ones come from
// metrics.Outcome via Result).
const (
	outcomeServeHit     = "serve-hit"
	outcomeServeMiss    = "serve-miss"
	outcomeServeResolve = "serve-resolve"
)

// resolveAndServe is the parent's miss path: fetch the document from this
// node's own parent (recursively, preserving the source tag) or origin,
// store a copy iff this node's expiration age strictly exceeds the child's
// (core.Scheme.OnParentResolve), and relay the body. rtr is the
// remote-parented trace continued from the requester's context (nil for
// untraced exchanges); the upstream fetch rides on it, so a recursive
// parent chain propagates the same trace ID all the way up.
func (n *Node) resolveAndServe(conn net.Conn, rec *connRec, req hproto.Request, myAge time.Duration, rtr *obs.Trace) error {
	var (
		size   int64
		source string
		err    error
	)
	switch {
	case n.parentAddr != "":
		size, _, source, err = n.fetchUpstream(rtr, n.parentAddr, req.URL, req.SizeHint, myAge, true)
	case n.originAddr != "":
		size, _, _, err = n.fetchUpstream(rtr, n.originAddr, req.URL, req.SizeHint, myAge, false)
		source = hproto.SourceOrigin
	default:
		return hproto.WriteResponse(conn, hproto.Response{
			Status:       hproto.StatusNotFound,
			ResponderAge: myAge,
			Trace:        rtr.Context(),
		}, nil)
	}
	if err != nil {
		n.warn("parent resolve failed", rtr, "url", req.URL, "err", err)
		return hproto.WriteResponse(conn, hproto.Response{
			Status:       hproto.StatusNotFound,
			ResponderAge: myAge,
			Trace:        rtr.Context(),
		}, nil)
	}
	keep := n.scheme.OnParentResolve(myAge, req.RequesterAge)
	h := n.hash.Load()
	if n.location == resolve.LocateHash {
		// The (acting) home keeps every document it resolves — the
		// group's only copy must land here — but only for requesters
		// whose ring view matches this node's (see mayKeepResolved);
		// a stale-view requester gets the body relayed without a store.
		keep = n.mayKeepResolved(h, req.RingFP)
	}
	if n.draining.Load() {
		keep = false
	}
	n.om.decisions[roleParent][decisionOf(keep)].Inc()
	n.auditDecision(rtr, roleParent, req.URL, decisionNames[decisionOf(keep)], size, myAge, req.RequesterAge)
	if keep {
		n.keepOnRing(cache.Document{URL: req.URL, Size: size}, h, n.now())
	}
	if rtr != nil {
		rtr.Outcome = outcomeServeResolve
		rtr.SizeBytes = size
		rtr.Stored = keep
	}
	return hproto.WriteResponse(conn, hproto.Response{
		Status:        hproto.StatusOK,
		ResponderAge:  myAge,
		ContentLength: size,
		Source:        source,
		Trace:         rtr.Context(),
	}, rec.zeros(size))
}

// handleICP answers neighbours' queries against the local cache without
// touching replacement state.
func (n *Node) handleICP(url string) icp.Opcode {
	if n.store.Contains(url) {
		return icp.OpHit
	}
	return icp.OpMiss
}
