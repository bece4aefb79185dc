package netnode

import (
	"io"
	"net"
	"time"

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

// serveConn is the responder side of the inter-proxy fetch. The engine's
// responder half (resolve.Engine.Serve) decides everything: the
// responder rule on a copy this node holds, and, for a request flagged
// Resolve, the upstream fetch and the parent's (or hash home's) keep
// rule. This adapter only frames the exchange: it reads the request,
// continues the requester's trace, says what this node may keep, and
// writes the answer with this node's expiration age piggybacked and the
// body's source.
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

	ask := resolve.Ask{URL: req.URL, SizeHint: req.SizeHint, ReqAge: req.RequesterAge, Resolve: req.Resolve}
	var holder resolve.Holder = nodeStore{n}
	switch {
	case n.location == resolve.LocateHash:
		// The (acting) home keeps every document it resolves — the
		// group's only copy must land here — but only for requesters
		// whose ring view matches this node's (see mayKeepResolved); a
		// stale-view requester gets the body relayed without a store.
		// The copy is kept on the ring the verdict was reached on.
		h := n.hash.Load()
		ask.Home, ask.Keep = true, resolve.PlacementNever
		if n.mayKeepResolved(h, req.RingFP) {
			ask.Keep = resolve.PlacementAlways
		}
		holder = homeStore{nodeStore{n}, h}
	}
	s, err := n.engine.Serve(rtr, holder, ask, n.now())
	if err != nil {
		n.warn("parent resolve failed", rtr, "url", req.URL, "err", err)
	}

	resp := hproto.Response{Status: hproto.StatusNotFound, ResponderAge: s.Age, Trace: rtr.Context()}
	var body io.Reader
	if s.Found {
		resp.Status, resp.ContentLength, resp.Source = hproto.StatusOK, s.Doc.Size, hproto.SourceCache
		if !s.FromGroup {
			resp.Source = hproto.SourceOrigin
		}
		body = rec.zeros(s.Doc.Size)
	}
	if err := hproto.WriteResponse(conn, resp, body); err != nil {
		n.warn("write fetch response failed", rtr, "err", err)
		rtr.SpanErr(err)
	}
	if rtr != nil {
		switch {
		case s.Resolved:
			rtr.Outcome, rtr.Stored = outcomeServeResolve, s.Kept
		case s.Found:
			rtr.Outcome = outcomeServeHit
		default:
			rtr.Outcome = outcomeServeMiss
		}
		rtr.SizeBytes = s.Doc.Size
		rtr.CloseSpan(serveSpan, time.Since(rtr.Start))
		rtr.RequesterAgeMS = obs.AgeMS(req.RequesterAge)
		rtr.ResponderAgeMS = obs.AgeMS(s.Age)
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

// handleICP answers neighbours' queries against the local cache without
// touching replacement state.
func (n *Node) handleICP(url string) icp.Opcode {
	if n.store.Contains(url) {
		return icp.OpHit
	}
	return icp.OpMiss
}
