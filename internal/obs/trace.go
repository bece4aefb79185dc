package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names used by the node's request lifecycle. Collected here so the
// trace schema is greppable in one place; the ring accepts any string.
const (
	StageLocalLookup = "local-lookup"
	StageICPFanout   = "icp-fanout"
	StageDigestScan  = "digest-scan"
	StageRemoteFetch = "remote-fetch"
	StagePlacement   = "placement"
	StageParentFetch = "parent-fetch"
	StageOriginFetch = "origin-fetch"
	// StageServe is the responder side of a peer fetch: the span a node
	// records when it serves (or resolves) a document for a peer, on the
	// remote-parented trace continued from the requester's context.
	StageServe = "serve-remote"
)

// Placement-decision outcomes recorded on the placement span and the
// decision counters.
const (
	DecisionAccept  = "accept"
	DecisionReject  = "reject"
	DecisionPromote = "promote"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// AttrList holds a span's annotations. It is a slice, not a map, because
// spans carry at most a handful of attributes and the request path runs
// with cold caches: an append into one backing array costs a fraction of
// a map allocation plus hashed inserts. It still marshals as a JSON
// object, so the /debug/trace schema reads like a map.
type AttrList []Attr

// Get returns the value for key, or "".
func (l AttrList) Get(key string) string {
	for _, a := range l {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// MarshalJSON renders the list as a {"k":"v",...} object.
func (l AttrList) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16*len(l)+2)
	b = append(b, '{')
	for i, a := range l {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, a.Key)
		b = append(b, ':')
		b = strconv.AppendQuote(b, a.Value)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON accepts the object form MarshalJSON produces.
func (l *AttrList) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := make(AttrList, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{Key: k, Value: v})
	}
	*l = out
	return nil
}

// Span is one timed stage of a request trace.
type Span struct {
	// Stage names the lifecycle step (Stage* constants).
	Stage string `json:"stage"`
	// StartUS is the span's start offset from the trace start, microseconds.
	StartUS int64 `json:"start_us"`
	// DurUS is the span duration in microseconds.
	DurUS int64 `json:"dur_us"`
	// Err carries the stage's failure, if any.
	Err string `json:"err,omitempty"`
	// Attrs carries stage-specific values: the piggybacked expiration ages
	// on a placement span, the responder address on a fetch span, the
	// replies/silent counts on an ICP span.
	Attrs AttrList `json:"attrs,omitempty"`
}

// Trace is one request's record: identity, outcome, the placement
// decision's inputs (both piggybacked expiration ages) and its spans.
// StartTrace hands out a recycled builder that the request goroutine alone
// fills in until Finish copies it into the ring; nil receivers make every
// builder method a no-op. Builders and ring slots name the request by
// numbers: only Snapshot's copies carry ID, TraceID and ParentID strings.
type Trace struct {
	// ID is the node-unique request ID (also the slog request_id).
	ID string `json:"id"`
	// TraceID is the group-wide trace this record belongs to: minted at
	// the front door of a sampled request, inherited off the wire by every
	// downstream hop. Empty on traces recorded before propagation existed.
	TraceID string `json:"trace_id,omitempty"`
	// ParentID is the upstream node's request-record ID when this trace
	// was caused by a peer's fetch (remote-parented); empty at the front
	// door.
	ParentID string `json:"parent_id,omitempty"`
	// Hop is the forwarding depth from the front door (0 there).
	Hop int `json:"hop,omitempty"`
	// Node is the serving node's configured ID.
	Node string `json:"node"`
	// URL is the requested document.
	URL string `json:"url"`
	// Start is the wall-clock request start.
	Start time.Time `json:"start"`
	// Outcome is the final classification (local-hit/remote-hit/miss/error).
	Outcome string `json:"outcome"`
	// SizeBytes is the body size served.
	SizeBytes int64 `json:"size_bytes,omitempty"`
	// Responder is the peer that served a remote hit, if any.
	Responder string `json:"responder,omitempty"`
	// RequesterAgeMS and ResponderAgeMS are the two piggybacked cache
	// expiration ages behind the EA placement decision, in milliseconds
	// (-1 encodes "no contention", the +inf sentinel).
	RequesterAgeMS int64 `json:"requester_age_ms,omitempty"`
	ResponderAgeMS int64 `json:"responder_age_ms,omitempty"`
	// Decision is the placement outcome at this node (accept/reject), with
	// Promoted flagging the responder-side promotion leg.
	Decision string `json:"decision,omitempty"`
	// Stored reports whether this node kept a copy.
	Stored bool `json:"stored"`
	// Err is the request's terminal error, if it failed.
	Err string `json:"err,omitempty"`
	// DurUS is the whole request duration in microseconds.
	DurUS int64 `json:"dur_us"`
	// Spans are the stages in execution order.
	Spans []Span `json:"spans"`

	id     identity
	parent string // ParentID: a view of the wire context it arrived in
	// spanBuf and attrBuf back Spans and their Attrs for the typical
	// request (a remote hit: 4 spans, 5 attributes), so recording one
	// allocates nothing; retries regrow onto the heap.
	spanBuf [4]Span
	attrBuf [8]Attr
	nattr   int // attrBuf entries taken by the spans before the last
}

// identity names a record by numbers: the node's request-ID prefix and
// sequence number (ID "<prefix>-000042") and the group-wide trace ID. A
// zero seq names nothing — an unsampled decision.
type identity struct {
	prefix string
	seq    uint64
	trace  TraceID
}

// appendRequestID appends "<prefix>-<seq>", seq padded to six digits.
func (id identity) appendRequestID(b []byte) []byte {
	b = append(b, id.prefix...)
	b = append(b, '-')
	for d := uint64(100000); d > 1 && id.seq < d; d /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, id.seq, 10)
}

func (id identity) requestID() string {
	return string(id.appendRequestID(make([]byte, 0, len(id.prefix)+8)))
}

// named renders the identity of t, a copy leaving the ring.
func (t *Trace) named() {
	if t.id.seq != 0 {
		t.ID, t.TraceID, t.ParentID = t.id.requestID(), t.id.trace.String(), t.parent
	}
}

// AgeMS converts a piggybacked expiration age to the trace encoding:
// milliseconds, with the no-contention (+inf) sentinel as -1.
func AgeMS(age time.Duration) int64 {
	if age == time.Duration(1<<63-1) {
		return -1
	}
	return age.Milliseconds()
}

// OpenSpan appends an open span starting at the wall-clock instant start
// and returns its index, or -1 on a nil trace. Close it with CloseSpan.
// The indexed pair lets hot paths time a stage with a caller-supplied
// clock reading and no closure.
func (t *Trace) OpenSpan(stage string, start time.Time) int {
	if t == nil {
		return -1
	}
	if t.Spans == nil {
		t.Spans = t.spanBuf[:0]
	} else {
		// The last span's attributes are final: the new span's go after.
		t.nattr = min(t.nattr+len(t.Spans[len(t.Spans)-1].Attrs), len(t.attrBuf))
	}
	t.Spans = append(t.Spans, Span{Stage: stage, StartUS: start.Sub(t.Start).Microseconds()})
	return len(t.Spans) - 1
}

// CloseSpan seals the span at idx with its duration. Safe on a nil trace
// and on out-of-range indexes (OpenSpan returns -1 for a nil trace).
func (t *Trace) CloseSpan(idx int, dur time.Duration) {
	if t == nil || idx < 0 || idx >= len(t.Spans) {
		return
	}
	t.Spans[idx].DurUS = dur.Microseconds()
}

// Annotate adds an attribute to the most recently started span. Safe on a
// nil trace.
func (t *Trace) Annotate(k, v string) {
	if t == nil || len(t.Spans) == 0 {
		return
	}
	sp := &t.Spans[len(t.Spans)-1]
	if sp.Attrs == nil {
		sp.Attrs = t.attrBuf[t.nattr:t.nattr]
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: k, Value: v})
}

// SpanErr records an error on the most recently started span. Safe on a
// nil trace.
func (t *Trace) SpanErr(err error) {
	if t == nil || err == nil || len(t.Spans) == 0 {
		return
	}
	t.Spans[len(t.Spans)-1].Err = err.Error()
}

// copyTo copies t into dst, spans and attributes into dst's own inline
// arrays (the heap only past them), so the two share no memory. dst may
// be t: a slot the ring's growth moved re-points its spans this way.
func (t *Trace) copyTo(dst *Trace) {
	spans := t.Spans
	*dst = *t
	if spans == nil {
		return
	}
	dst.Spans = append(dst.spanBuf[:0], spans...)
	attrs := dst.attrBuf[:0]
	for i := range dst.Spans {
		sp := &dst.Spans[i]
		if sp.Attrs != nil {
			n := len(attrs)
			attrs = append(attrs, sp.Attrs...)
			sp.Attrs = attrs[n:len(attrs):len(attrs)]
		}
	}
}

// TraceRing is a fixed-capacity ring of completed traces held by value
// under a mutex, like DecisionLog: Finish copies a record in, Snapshot and
// WriteJSON copy out, so a snapshot is the last min(published, capacity)
// records in publish order and what a reader holds is its own.
type TraceRing struct {
	mu    sync.Mutex
	size  int     // capacity of the ring
	slots []Trace // grows to size as records arrive
	next  uint64  // records ever published; next%size is the slot to fill
}

// DefaultTraceCapacity is the ring size ServeAdmin and proxyd default to.
const DefaultTraceCapacity = 512

// DefaultTraceSampling is the trace sampling proxyd defaults to: one
// traced request in eight. Metrics cover every request regardless; see
// SetTraceSampling.
const DefaultTraceSampling = 8

// NewTraceRing returns a ring holding the last n traces (n < 1 selects
// DefaultTraceCapacity).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = DefaultTraceCapacity
	}
	return &TraceRing{size: n}
}

// publish copies a finished record in, overwriting the oldest when full.
// Safe on a nil ring.
func (r *TraceRing) publish(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	if len(r.slots) < r.size {
		moved := len(r.slots) == cap(r.slots)
		r.slots = append(r.slots, Trace{})
		if moved {
			// Moved records' spans still point into the old array.
			for i := range r.slots[:len(r.slots)-1] {
				r.slots[i].copyTo(&r.slots[i])
			}
		}
	}
	t.copyTo(&r.slots[r.next%uint64(r.size)])
	r.next++
	r.mu.Unlock()
}

// copyOut returns named copies of the records keep accepts (nil keeps
// all), oldest first; only the copying holds the lock.
func (r *TraceRing) copyOut(keep func(*Trace) bool) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	held := make([]Trace, 0, len(r.slots))
	for i := r.next - uint64(len(r.slots)); i < r.next; i++ {
		if s := &r.slots[i%uint64(r.size)]; keep == nil || keep(s) {
			held = append(held, Trace{})
			s.copyTo(&held[len(held)-1])
		}
	}
	r.mu.Unlock()
	out := make([]*Trace, len(held))
	for i := range held {
		held[i].named()
		out[i] = &held[i]
	}
	return out
}

// Snapshot returns copies of the held traces, oldest first. Safe on a nil
// ring.
func (r *TraceRing) Snapshot() []*Trace { return r.copyOut(nil) }

// SnapshotTrace returns copies of the held records belonging to one
// group-wide trace ID, oldest first — a node's contribution to a stitched
// timeline. Safe on a nil ring.
func (r *TraceRing) SnapshotTrace(traceID string) []*Trace {
	id, ok := parseTraceID(traceID)
	return r.copyOut(func(t *Trace) bool { return ok && t.id.seq != 0 && t.id.trace == id })
}

// WriteJSON dumps the ring as a JSON array, oldest first — the
// /debug/trace payload. A non-empty traceID keeps only that group-wide
// trace's records (the ?trace= filter).
func (r *TraceRing) WriteJSON(w io.Writer, traceID string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	var traces []*Trace
	if traceID != "" {
		traces = r.SnapshotTrace(traceID)
	} else {
		traces = r.Snapshot()
	}
	if traces == nil {
		traces = []*Trace{}
	}
	return enc.Encode(traces)
}

// Telemetry bundles what a node needs to be observable: the metric
// registry, the trace ring, and a request-ID sequence. A nil *Telemetry is
// fully inert — every method returns a no-op value.
type Telemetry struct {
	Registry *Registry
	Traces   *TraceRing
	// Placement is the bounded placement-decision audit log served on
	// /debug/placement. Unlike Traces it is exact, not sampled.
	Placement *DecisionLog

	prefix string
	reqSeq atomic.Uint64
	sample atomic.Int64
}

// New builds a Telemetry with a fresh registry, a trace ring of traceCap
// (<1 selects DefaultTraceCapacity) and a default-capacity placement
// decision log. prefix seeds request IDs (usually the node ID).
func New(prefix string, traceCap int) *Telemetry {
	return &Telemetry{
		Registry:  NewRegistry(),
		Traces:    NewTraceRing(traceCap),
		Placement: NewDecisionLog(0),
		prefix:    prefix,
	}
}

// SetTraceSampling keeps one trace per n requests (n <= 1 traces every
// request, the default). Metrics are unaffected: sampling only bounds
// the tracing cost — a record's span bookkeeping and its copy into the
// ring — which dominates the telemetry overhead on a busy node. Safe to
// change at runtime and on a nil Telemetry.
func (t *Telemetry) SetTraceSampling(n int) {
	if t == nil {
		return
	}
	t.sample.Store(int64(n))
}

// builders recycles the records StartTrace and StartRemoteTrace hand out.
var builders = sync.Pool{New: func() any { return new(Trace) }}

func (t *Telemetry) builder(id identity, parent string, hop int, node, url string) *Trace {
	tr := builders.Get().(*Trace)
	tr.id, tr.parent, tr.Hop, tr.Node, tr.URL, tr.Start = id, parent, hop, node, url, time.Now()
	return tr
}

// StartTrace opens a front-door request trace, or nil — inert — without
// telemetry or when sampling skips this request. Every Trace method is
// nil-safe, so callers never branch on the sampling decision. A sampled
// trace gets a fresh group-wide trace ID at hop 0, ready to propagate.
func (t *Telemetry) StartTrace(node, url string) *Trace {
	if t == nil {
		return nil
	}
	n := t.reqSeq.Add(1)
	if s := t.sample.Load(); s > 1 && n%uint64(s) != 0 {
		return nil
	}
	return t.builder(identity{prefix: t.prefix, seq: n, trace: NewTraceID()}, "", 0, node, url)
}

// StartRemoteTrace opens a remote-parented trace for work this node does on
// behalf of another node's request (a served remote hit, a relayed parent
// resolve). The incoming sampled bit overrides local sampling entirely:
// if the originator recorded the trace, every hop records its leg, so the
// stitched timeline is never half-missing. Returns nil — inert — without
// telemetry or when the context is unsampled or names no valid trace.
func (t *Telemetry) StartRemoteTrace(node, url string, tc TraceContext) *Trace {
	if t == nil || !tc.Sampled {
		return nil
	}
	id, ok := parseTraceID(tc.TraceID)
	if !ok {
		return nil
	}
	return t.builder(identity{prefix: t.prefix, seq: t.reqSeq.Add(1), trace: id}, tc.ParentID, tc.Hop+1, node, url)
}

// Context renders the X-Trace-Context value a downstream fetch on behalf
// of tr carries: same trace ID, this record as the parent, same hop (the
// receiver increments). "" — no header — for a nil trace.
func (tr *Trace) Context() string {
	if tr == nil {
		return ""
	}
	var buf [64]byte
	b := append(tr.id.trace.appendHex(buf[:0]), '/')
	b = append(tr.id.appendRequestID(b), '/')
	b = strconv.AppendInt(b, int64(tr.Hop), 10)
	return string(append(b, "/1"...))
}

// Finish seals tr (computing its duration), copies it into the ring and
// takes the builder back — tr must not be used afterwards — returning its
// group-wide trace ID. Safe on nil telemetry and/or nil trace (0).
func (t *Telemetry) Finish(tr *Trace) TraceID {
	if t == nil || tr == nil {
		return 0
	}
	tr.DurUS = time.Since(tr.Start).Microseconds()
	t.Traces.publish(tr)
	id := tr.id.trace
	*tr = Trace{}
	builders.Put(tr)
	return id
}
