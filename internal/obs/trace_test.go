package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eacache/internal/race"
)

func TestTraceSpansAndAttrs(t *testing.T) {
	tel := New("n0", 8)
	tr := tel.StartTrace("n0", "http://w/doc")
	tr.CloseSpan(tr.OpenSpan(StageLocalLookup, time.Now()), 0)
	idx := tr.OpenSpan(StagePlacement, time.Now())
	tr.Annotate("requester_age", "1.5s")
	tr.Annotate("responder_age", "3s")
	tr.SpanErr(errors.New("boom"))
	tr.CloseSpan(idx, time.Millisecond)
	tel.Finish(tr)

	got := tel.Traces.Snapshot()
	if len(got) != 1 {
		t.Fatalf("ring holds %d traces", len(got))
	}
	if got[0].ID != "n0-000001" {
		t.Fatalf("request id = %q", got[0].ID)
	}
	spans := got[0].Spans
	if len(spans) != 2 || spans[0].Stage != StageLocalLookup || spans[1].Stage != StagePlacement {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Attrs.Get("requester_age") != "1.5s" || spans[1].Attrs.Get("responder_age") != "3s" {
		t.Fatalf("attrs = %+v", spans[1].Attrs)
	}
	if spans[1].Err != "boom" {
		t.Fatalf("span err = %q", spans[1].Err)
	}
	if got[0].DurUS < 0 {
		t.Fatalf("trace duration = %d", got[0].DurUS)
	}
}

// TestNilTelemetryInert: a node built without telemetry must be able to
// call every recording method on nil receivers.
func TestNilTelemetryInert(t *testing.T) {
	var tel *Telemetry
	tr := tel.StartTrace("n", "u")
	if tr != nil {
		t.Fatal("nil telemetry returned a live trace")
	}
	tr.CloseSpan(tr.OpenSpan("x", time.Now()), 0)
	tr.Annotate("k", "v")
	tr.SpanErr(errors.New("e"))
	if id := tel.Finish(tr); id != 0 || tr.Context() != "" {
		t.Fatalf("nil trace finished as %v with context %q", id, tr.Context())
	}
	var ring *TraceRing
	ring.publish(&Trace{})
	if ring.Snapshot() != nil {
		t.Fatal("nil ring not inert")
	}
}

func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		r.publish(&Trace{ID: fmt.Sprintf("t%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	// Oldest first: t6..t9 survive.
	for i, tr := range got {
		if want := fmt.Sprintf("t%d", 6+i); tr.ID != want {
			t.Fatalf("slot %d = %s, want %s", i, tr.ID, want)
		}
	}
}

func TestTraceRingPartialFill(t *testing.T) {
	r := NewTraceRing(8)
	r.publish(&Trace{ID: "a"})
	r.publish(&Trace{ID: "b"})
	got := r.Snapshot()
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestTraceRingConcurrentPublish(t *testing.T) {
	r := NewTraceRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.publish(&Trace{ID: fmt.Sprintf("w%d-%d", w, i)})
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("ring holds %d, want 64", got)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewTraceRing(4)
	r.publish(&Trace{
		ID: "x-000001", Node: "x", URL: "http://w/d", Outcome: "remote-hit",
		RequesterAgeMS: 1500, ResponderAgeMS: 3000, Decision: DecisionReject,
		Start: time.Now(),
		Spans: []Span{{Stage: StageICPFanout, DurUS: 42}},
	})
	var sb strings.Builder
	if err := r.WriteJSON(&sb, ""); err != nil {
		t.Fatal(err)
	}
	var decoded []Trace
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(decoded) != 1 || decoded[0].RequesterAgeMS != 1500 || decoded[0].ResponderAgeMS != 3000 {
		t.Fatalf("decoded = %+v", decoded)
	}

	// An empty ring dumps [], not null.
	sb.Reset()
	if err := NewTraceRing(2).WriteJSON(&sb, ""); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("empty dump = %q, want []", sb.String())
	}
}

func TestAgeMS(t *testing.T) {
	if got := AgeMS(2500 * time.Millisecond); got != 2500 {
		t.Fatalf("AgeMS = %d", got)
	}
	if got := AgeMS(time.Duration(1<<63 - 1)); got != -1 {
		t.Fatalf("no-contention sentinel = %d, want -1", got)
	}
}

// TestTraceSampling: with 1-in-N sampling only every Nth request gets a
// trace; the skipped requests get a nil (fully inert) trace, and metrics
// are untouched by the sampling decision.
func TestTraceSampling(t *testing.T) {
	tel := New("s", 16)
	tel.SetTraceSampling(4)
	live := 0
	for i := 0; i < 12; i++ {
		tr := tel.StartTrace("s", "http://w/d")
		tr.CloseSpan(tr.OpenSpan(StageLocalLookup, time.Now()), 0) // must be safe on sampled-out (nil) traces
		tel.Finish(tr)
		if tr != nil {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("sampled %d traces over 12 requests at 1:4, want 3", live)
	}
	if got := len(tel.Traces.Snapshot()); got != 3 {
		t.Fatalf("ring holds %d, want 3", got)
	}

	// n <= 1 restores tracing every request.
	tel.SetTraceSampling(1)
	if tr := tel.StartTrace("s", "http://w/d"); tr == nil {
		t.Fatal("sampling 1 skipped a trace")
	}
}

// TestAttrList covers the slice-backed span annotations: lookup and the
// JSON object round trip.
func TestAttrList(t *testing.T) {
	l := AttrList{{Key: "a", Value: "1"}, {Key: "b", Value: `q"uo`}}
	if l.Get("a") != "1" || l.Get("b") != `q"uo` || l.Get("missing") != "" {
		t.Fatalf("Get over %+v", l)
	}
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("attrs %s did not marshal as an object: %v", data, err)
	}
	if len(m) != 2 || m["a"] != "1" || m["b"] != `q"uo` {
		t.Fatalf("round trip = %+v", m)
	}
	var back AttrList
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Get("b") != `q"uo` {
		t.Fatalf("unmarshal = %+v", back)
	}
}

// TestTraceRecordAllocatesNothing: a sampled record costs a copy, not an
// allocation — a front-door record with four spans and four attributes,
// and a remote-parented leg, each started and finished into a full ring.
func TestTraceRecordAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	tel := New("n", 8)
	tel.SetTraceSampling(1)
	front := func() {
		tr := tel.StartTrace("n", "http://x.example.edu/doc")
		for _, stage := range []string{StageLocalLookup, StageICPFanout, StageRemoteFetch, StagePlacement} {
			idx := tr.OpenSpan(stage, time.Now())
			tr.Annotate("stage", stage)
			tr.CloseSpan(idx, time.Microsecond)
		}
		tel.Finish(tr)
	}
	tc := TraceContext{TraceID: "0123456789abcdef", ParentID: "p-000042", Hop: 0, Sampled: true}
	remote := func() {
		tr := tel.StartRemoteTrace("n", "http://x.example.edu/doc", tc)
		tr.CloseSpan(tr.OpenSpan(StageServe, time.Now()), time.Microsecond)
		tel.Finish(tr)
	}
	for i := 0; i < 8; i++ { // the ring grows until full
		front()
	}
	if got := testing.AllocsPerRun(200, front); got != 0 {
		t.Errorf("front door: %.1f allocs per record, want 0", got)
	}
	got := tel.Traces.Snapshot()
	if last := got[len(got)-1]; len(last.Spans) != 4 || last.Spans[3].Attrs.Get("stage") != StagePlacement || last.Hop != 0 {
		t.Fatalf("front-door record = %+v", last)
	}
	if got := testing.AllocsPerRun(200, remote); got != 0 {
		t.Errorf("remote leg: %.1f allocs per record, want 0", got)
	}
	got = tel.Traces.Snapshot()
	if last := got[len(got)-1]; last.ParentID != tc.ParentID || last.TraceID != tc.TraceID || last.Hop != 1 {
		t.Fatalf("remote leg recorded as %+v", last)
	}
}

// TestTraceIDForms: a trace ID renders as 16 lowercase hex digits and
// parses back; anything else is refused.
func TestTraceIDForms(t *testing.T) {
	for _, id := range []TraceID{0, 1, 0x0123456789abcdef, 1<<64 - 1} {
		s := id.String()
		if back, ok := parseTraceID(s); len(s) != 16 || !ok || back != id {
			t.Fatalf("%d renders as %q, parses back as %d (%v)", uint64(id), s, uint64(back), ok)
		}
	}
	for _, bad := range []string{"", "0123456789ABCDEF", "0123456789abcde", "0123456789abcdefa", "0123456789abcdeg"} {
		if _, ok := parseTraceID(bad); ok {
			t.Fatalf("parseTraceID(%q) accepted", bad)
		}
	}
}

// TestSnapshotCopiesAreTheReaders: a copy handed out shares nothing with
// the ring — a reader that rewrites it changes no later snapshot — and
// records with more spans and attributes than the inline arrays hold are
// copied whole.
func TestSnapshotCopiesAreTheReaders(t *testing.T) {
	tel := New("c", 4)
	tel.SetTraceSampling(1)
	tr := tel.StartTrace("c", "http://x.example.edu/big")
	for s := 0; s < 6; s++ {
		tr.OpenSpan(StageRemoteFetch, time.Now())
		for a := 0; a < 3; a++ {
			tr.Annotate("a"+strconv.Itoa(a), strconv.Itoa(s))
		}
	}
	tel.Finish(tr)
	first := tel.Traces.Snapshot()[0]
	first.Spans[0].Stage = "scribbled"
	first.Spans[5].Attrs[2].Value = "scribbled"
	again := tel.Traces.Snapshot()[0]
	if len(again.Spans) != 6 || again.Spans[0].Stage != StageRemoteFetch {
		t.Fatalf("spans after a reader's write: %+v", again.Spans)
	}
	for s, sp := range again.Spans {
		if len(sp.Attrs) != 3 || sp.Attrs.Get("a2") != strconv.Itoa(s) {
			t.Fatalf("span %d attrs = %+v", s, sp.Attrs)
		}
	}
}
