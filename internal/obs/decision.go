package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Roles a node plays when it makes a placement decision. A requester
// decides whether to store a copy it fetched (paper §3.3 step 5); a
// responder decides whether to promote/refresh the copy it served (step 4);
// a parent decides whether to keep a document it resolved for a child.
const (
	RoleRequester = "requester"
	RoleResponder = "responder"
	RoleParent    = "parent"
)

// What the store did with a copy a verdict offered it (Decision.Outcome),
// and why it refused one (Decision.Reason).
const (
	OutcomeStored, OutcomeRefused                 = "stored", "refused"
	ReasonDraining, ReasonOffRing, ReasonTooLarge = "draining", "off-ring", "too-large"
)

// Decision is one EA placement verdict with the inputs the paper's eq. 5
// comparison used. LocalAgeMS/PeerAgeMS are the two piggybacked cache
// expiration ages in milliseconds with the no-contention (+inf) sentinel
// encoded as -1, exactly as on Trace.
type Decision struct {
	// Time is when the verdict was reached.
	Time time.Time `json:"time"`
	// Node is the deciding node's ID.
	Node string `json:"node"`
	// URL is the document the decision is about.
	URL string `json:"url"`
	// Role is the deciding node's role (Role* constants).
	Role string `json:"role"`
	// Verdict is the outcome (Decision* constants: accept/reject/promote).
	Verdict string `json:"verdict"`
	// LocalAgeMS is this node's cache expiration age at decision time.
	LocalAgeMS int64 `json:"local_age_ms"`
	// PeerAgeMS is the piggybacked expiration age from the other side
	// (the responder's on a requester decision, the requester's on a
	// responder decision).
	PeerAgeMS int64 `json:"peer_age_ms"`
	// SizeBytes is the document size the feasibility check saw.
	SizeBytes int64 `json:"size_bytes,omitempty"`
	// Outcome is what the store did with the copy the verdict offered
	// it (Outcome* constants), empty when the verdict offered none.
	Outcome string `json:"outcome,omitempty"`
	// Reason says why the store refused the copy (Reason* constants).
	Reason string `json:"reason,omitempty"`
	// TraceID links the decision to its group-wide trace when the request
	// was sampled.
	TraceID string `json:"trace_id,omitempty"`
	// RequestID is the node-local request record (trace ID within the
	// node's ring / slog request_id), when sampled.
	RequestID string `json:"request_id,omitempty"`

	id identity // the sampled request's, rendered into TraceID/RequestID on the way out
}

// named renders the identity of d, a copy leaving the log.
func (d *Decision) named() {
	if d.id.seq != 0 {
		d.TraceID, d.RequestID = d.id.trace.String(), d.id.requestID()
	}
}

// DecisionLog is a fixed-capacity ring of placement decisions held by
// value under a mutex: Record copies the decision in, naming it by its
// request's numbers, and Snapshot and WriteJSON copy out, rendering them,
// so recording leaves nothing on the heap and a reader never sees a slot
// being overwritten. Unlike traces, every decision is recorded — the
// audit is exact, not sampled.
type DecisionLog struct {
	mu    sync.Mutex
	size  int        // capacity of the ring
	slots []Decision // grows to size as decisions arrive: a node that decides nothing holds nothing
	next  uint64     // decisions ever recorded; next%size is the slot to fill
}

// DefaultDecisionCapacity is the decision-log size Telemetry defaults to.
const DefaultDecisionCapacity = 1024

// NewDecisionLog returns a log holding the last n decisions (n < 1 selects
// DefaultDecisionCapacity).
func NewDecisionLog(n int) *DecisionLog {
	if n < 1 {
		n = DefaultDecisionCapacity
	}
	return &DecisionLog{size: n}
}

// Record copies one decision into the ring, overwriting the oldest when
// full, named by tr, the sampled request it belongs to (nil if none).
// Safe on a nil log.
func (l *DecisionLog) Record(d Decision, tr *Trace) {
	if l == nil {
		return
	}
	if tr != nil {
		d.id = tr.id
	}
	l.mu.Lock()
	if len(l.slots) < l.size {
		l.slots = append(l.slots, d)
	} else {
		l.slots[l.next%uint64(l.size)] = d
	}
	l.next++
	l.mu.Unlock()
}

// Snapshot returns copies of the held decisions, oldest first. Safe on a
// nil log.
func (l *DecisionLog) Snapshot() []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Decision, 0, len(l.slots))
	for i := l.next - uint64(len(l.slots)); i < l.next; i++ {
		out = append(out, l.slots[i%uint64(l.size)])
	}
	l.mu.Unlock()
	for i := range out {
		out[i].named()
	}
	return out
}

// WriteJSON dumps the log as a JSON array, oldest first — the
// /debug/placement payload. Non-empty traceID/verdict keep only matching
// records (the ?trace= / ?verdict= filters).
func (l *DecisionLog) WriteJSON(w io.Writer, traceID, verdict string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	all := l.Snapshot()
	out := make([]Decision, 0, len(all)) // "[]", not "null", when empty
	for _, d := range all {
		if traceID != "" && d.TraceID != traceID {
			continue
		}
		if verdict != "" && d.Verdict != verdict {
			continue
		}
		out = append(out, d)
	}
	return enc.Encode(out)
}
