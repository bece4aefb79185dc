package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{TraceID: "0123456789abcdef", ParentID: "front-000042", Hop: 0, Sampled: true},
		{TraceID: "ffffffffffffffff", ParentID: "n1-000001", Hop: 63, Sampled: false},
		{TraceID: "00000000000000aa", ParentID: "weird/parent/id", Hop: 7, Sampled: true},
		{TraceID: "deadbeefdeadbeef", ParentID: "", Hop: 1, Sampled: true},
	}
	for _, tc := range cases {
		sampled := map[bool]int{false: 0, true: 1}[tc.Sampled]
		wire := fmt.Sprintf("%s/%s/%d/%d", tc.TraceID, tc.ParentID, tc.Hop, sampled)
		got, err := ParseTraceContext(wire)
		if err != nil {
			t.Fatalf("ParseTraceContext(%q): %v", wire, err)
		}
		if got != tc {
			t.Fatalf("round trip changed context: %+v -> %+v", tc, got)
		}
	}
}

func TestParseTraceContextRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"no-slashes-at-all",
		"0123456789abcdef/parent/0",         // missing sampled field
		"0123456789abcdef/parent/0/2",       // sampled not 0|1
		"0123456789abcdef/parent/-1/1",      // negative hop
		"0123456789abcdef/parent/65/1",      // hop past MaxTraceHops
		"0123456789abcdef/parent/seven/1",   // non-numeric hop
		"0123456789abcdeX/parent/0/1",       // non-hex trace ID
		"0123/parent/0/1",                   // short trace ID
		"0123456789abcdef0/parent/0/1",      // long trace ID
		"0123456789ABCDEF/parent/0/1",       // upper-case hex rejected
		strings.Repeat("a", 300) + "/p/0/1", // oversized
		"0123456789abcdef/parent/0/1\n",     // trailing junk
	}
	for _, in := range bad {
		if _, err := ParseTraceContext(in); err == nil {
			t.Errorf("ParseTraceContext(%q) accepted malformed input", in)
		}
	}
}

func TestNewTraceIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID().String()
		if len(id) != 16 {
			t.Fatalf("trace ID %q is not 16 chars", id)
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("trace ID %q contains non-hex char %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestStartRemoteTraceHonoursContext checks the cross-peer hand-off: a
// sampled incoming context forces a record regardless of the local
// sampling knob, the hop count advances, and the trace ID is inherited
// verbatim so eacctl can stitch the records by ID.
func TestStartRemoteTraceHonoursContext(t *testing.T) {
	tel := New("n1", 8)
	tel.SetTraceSampling(1 << 30) // local sampling would reject everything

	tc := TraceContext{TraceID: "0123456789abcdef", ParentID: "front-000042", Hop: 2, Sampled: true}
	tr := tel.StartRemoteTrace("n1", "http://o/x", tc)
	if tr == nil {
		t.Fatal("sampled remote context must override local sampling")
	}
	if tr.Hop != tc.Hop+1 {
		t.Fatalf("hop not advanced: got %d want %d", tr.Hop, tc.Hop+1)
	}

	// The onward context names this record as the parent of the next hop.
	next, err := ParseTraceContext(tr.Context())
	if err != nil {
		t.Fatalf("onward context %q: %v", tr.Context(), err)
	}
	if id := tel.Finish(tr); id.String() != tc.TraceID {
		t.Fatalf("Finish returned trace %s, want %s", id, tc.TraceID)
	}
	recs := tel.Traces.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("remote-parented record not published: %+v", recs)
	}
	// The record inherited trace and parent verbatim, so eacctl can
	// stitch the records by ID.
	if rec := recs[0]; rec.TraceID != tc.TraceID || rec.ParentID != tc.ParentID || rec.Hop != tc.Hop+1 {
		t.Fatalf("record = trace %q parent %q hop %d, want %q %q %d", rec.TraceID, rec.ParentID, rec.Hop, tc.TraceID, tc.ParentID, tc.Hop+1)
	}
	if next.TraceID != tc.TraceID || next.ParentID != recs[0].ID || next.Hop != recs[0].Hop || !next.Sampled {
		t.Fatalf("onward context wrong: %+v (record id %q hop %d)", next, recs[0].ID, recs[0].Hop)
	}

	// An unsampled context must not record even with eager local sampling.
	tel2 := New("n2", 8)
	tel2.SetTraceSampling(1)
	if tr2 := tel2.StartRemoteTrace("n2", "http://o/x", TraceContext{
		TraceID: "0123456789abcdef", ParentID: "p", Hop: 0, Sampled: false,
	}); tr2 != nil {
		t.Fatal("unsampled remote context must suppress the local record")
	}
}

// TestLocalTraceMintsID checks the front door: a locally started trace
// mints a fresh group-wide trace ID and hop 0, so downstream peers have
// something to inherit.
func TestLocalTraceMintsID(t *testing.T) {
	tel := New("front", 8)
	tel.SetTraceSampling(1)
	tr := tel.StartTrace("front", "http://o/y")
	if tr == nil {
		t.Fatal("expected a sampled trace")
	}
	ctx, err := ParseTraceContext(tr.Context())
	if err != nil {
		t.Fatalf("outgoing context %q: %v", tr.Context(), err)
	}
	id := tel.Finish(tr)
	if id == 0 || ctx.TraceID != id.String() {
		t.Fatalf("local trace did not mint a trace ID: %s, context %+v", id, ctx)
	}
	rec := tel.Traces.Snapshot()[0]
	if rec.TraceID != id.String() || rec.Hop != 0 || rec.ParentID != "" {
		t.Fatalf("front-door trace should be trace %s at hop 0 with no parent, got %q hop %d parent %q", id, rec.TraceID, rec.Hop, rec.ParentID)
	}
	if ctx.ParentID != rec.ID || !ctx.Sampled {
		t.Fatalf("outgoing context should name the record as parent: %+v vs id %q", ctx, rec.ID)
	}
}
