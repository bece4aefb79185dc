package netnode

import (
	"bufio"
	"io"
	"net"
	"testing"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/hproto"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// TestCrossPeerTracePropagation is the tentpole acceptance test: one
// remote hit on a live two-node group must leave records carrying the
// SAME group-wide trace ID in both nodes' rings — the requester's
// front-door record and the responder's remote-parented serve record —
// linked parent-to-child so eacctl can stitch them into one timeline.
func TestCrossPeerTracePropagation(t *testing.T) {
	origin := startOrigin(t)
	a, telA := startObservedNode(t, "a", core.EA{}, origin.Addr())
	b, telB := startObservedNode(t, "b", core.EA{}, origin.Addr())
	mesh(a, b)

	const url = "http://trace.example.edu/doc"
	if _, err := a.Request(url, 2048); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request(url, 2048)
	if err != nil || res.Outcome != metrics.RemoteHit {
		t.Fatalf("remote hit: res=%+v err=%v", res, err)
	}
	if res.TraceID == 0 {
		t.Fatalf("Result.TraceID = %q, want a group trace ID", res.TraceID)
	}

	// Requester side: b's ring holds the front-door record at hop 0.
	var reqRec *obs.Trace
	for _, tr := range telB.Traces.SnapshotTrace(res.TraceID.String()) {
		if tr.URL == url {
			reqRec = tr
		}
	}
	if reqRec == nil {
		t.Fatalf("requester ring has no record for trace %s", res.TraceID)
	}
	if reqRec.Hop != 0 || reqRec.ParentID != "" {
		t.Fatalf("front-door record: hop=%d parent=%q, want 0/empty", reqRec.Hop, reqRec.ParentID)
	}

	// Responder side: a's ring holds a remote-parented serve record for
	// the same trace ID, one hop deeper, parented by b's record.
	serveRecs := telA.Traces.SnapshotTrace(res.TraceID.String())
	if len(serveRecs) != 1 {
		t.Fatalf("responder ring holds %d records for trace %s, want 1", len(serveRecs), res.TraceID)
	}
	serve := serveRecs[0]
	if serve.Node != "a" || serve.URL != url {
		t.Fatalf("serve record = %+v", serve)
	}
	if serve.Hop != 1 {
		t.Fatalf("serve record hop = %d, want 1", serve.Hop)
	}
	if serve.ParentID != reqRec.ID {
		t.Fatalf("serve record parent = %q, want requester record %q", serve.ParentID, reqRec.ID)
	}
	if serve.Outcome != outcomeServeHit {
		t.Fatalf("serve record outcome = %q, want %q", serve.Outcome, outcomeServeHit)
	}
	var served bool
	for _, sp := range serve.Spans {
		if sp.Stage == obs.StageServe {
			served = true
		}
	}
	if !served {
		t.Fatalf("serve record lacks the %s span: %+v", obs.StageServe, serve.Spans)
	}

	// The requester's remote-fetch span learned the responder's record ID
	// from the echoed response context — the reverse stitching edge.
	var remoteID string
	for _, sp := range reqRec.Spans {
		if v := sp.Attrs.Get("remote_id"); v != "" {
			remoteID = v
		}
	}
	if remoteID != serve.ID {
		t.Fatalf("requester remote_id = %q, want responder record %q", remoteID, serve.ID)
	}

	// The placement audit on both sides carries the same trace ID: b made
	// a requester store decision, a made a responder promote decision.
	var reqDecision, respDecision *obs.Decision
	for _, d := range telB.Placement.Snapshot() {
		if d.TraceID == res.TraceID.String() && d.Role == obs.RoleRequester {
			reqDecision = &d
		}
	}
	for _, d := range telA.Placement.Snapshot() {
		if d.TraceID == res.TraceID.String() && d.Role == obs.RoleResponder {
			respDecision = &d
		}
	}
	if reqDecision == nil {
		t.Fatal("requester decision log has no entry for the trace")
	}
	if respDecision == nil {
		t.Fatal("responder decision log has no entry for the trace")
	}
	if reqDecision.URL != url || respDecision.URL != url {
		t.Fatalf("decision URLs: %q / %q", reqDecision.URL, respDecision.URL)
	}
	// Fresh caches on both sides: the EA inputs are the no-contention
	// sentinel, and strict EA rejects on the tie.
	if reqDecision.Verdict != obs.DecisionReject || respDecision.Verdict != obs.DecisionReject {
		t.Fatalf("verdicts = %q / %q, want reject/reject on an age tie",
			reqDecision.Verdict, respDecision.Verdict)
	}
	if reqDecision.LocalAgeMS != -1 || reqDecision.PeerAgeMS != -1 {
		t.Fatalf("requester decision ages = %d/%d, want -1/-1", reqDecision.LocalAgeMS, reqDecision.PeerAgeMS)
	}
	if reqDecision.SizeBytes != 2048 {
		t.Fatalf("requester decision size = %d, want 2048", reqDecision.SizeBytes)
	}
}

// TestMalformedTraceContextNeverFatal pins the robustness contract: a
// peer sending garbage in X-Trace-Context still gets served, and the
// damage is visible only as a clamp counter tick.
func TestMalformedTraceContextNeverFatal(t *testing.T) {
	origin := startOrigin(t)
	a, _ := startObservedNode(t, "a", core.EA{}, origin.Addr())

	const url = "http://trace.example.edu/garbage"
	if _, err := a.Request(url, 512); err != nil {
		t.Fatal(err)
	}

	before := a.Robustness().TraceClamps
	resp := rawFetchWithTrace(t, a.HTTPAddr(), url, "not/a/valid/context/at/all/&&&")
	if resp.Status != hproto.StatusOK {
		t.Fatalf("fetch with malformed trace context = %d, want %d", resp.Status, hproto.StatusOK)
	}
	after := a.Robustness().TraceClamps
	if after != before+1 {
		t.Fatalf("TraceClamps = %d, want %d", after, before+1)
	}

	// A hop count at the forwarding limit is refused the same way: count
	// a clamp, serve untraced, never error.
	before = after
	resp = rawFetchWithTrace(t, a.HTTPAddr(), url, "0123456789abcdef/p/64/1")
	if resp.Status != hproto.StatusOK {
		t.Fatalf("fetch at hop limit = %d, want %d", resp.Status, hproto.StatusOK)
	}
	if got := a.Robustness().TraceClamps; got != before+1 {
		t.Fatalf("TraceClamps = %d, want %d", got, before+1)
	}
}

// rawFetchWithTrace speaks hproto directly so the test can put an
// arbitrary string on the trace header — the typed client API only sends
// well-formed contexts.
func rawFetchWithTrace(t *testing.T, addr, url, trace string) hproto.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	req := hproto.Request{URL: url, RequesterAge: cache.NoContention, Trace: trace}
	if err := hproto.WriteRequest(bw, req); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := hproto.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength > 0 {
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}
