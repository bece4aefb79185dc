package obs

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// TraceContext is the compact per-request context propagated between peers
// on hproto requests and responses (the X-Trace-Context header). It names
// the group-wide trace a hop belongs to, the sender's span record, and how
// deep in the forwarding chain the receiver is — enough for eacctl to
// stitch one causally-linked timeline out of every node's span ring.
type TraceContext struct {
	// TraceID is the group-unique trace identifier, minted once at the
	// front door of the first node (16 lowercase hex digits).
	TraceID string
	// ParentID is the sender's request-record ID ("<node>-000042"), so the
	// receiver's trace points back at the span that caused it.
	ParentID string
	// Hop counts forwarding legs from the front door (0 there, 1 at the
	// responder a remote fetch lands on, 2 at that responder's parent, ...).
	Hop int
	// Sampled reports whether the originating node recorded a trace. A
	// receiver honours it over its own sampling so cross-node traces are
	// never half-recorded.
	Sampled bool
}

// MaxTraceHops bounds the hop count accepted off the wire. Anything larger
// means a forwarding loop or a corrupted header, not a real topology.
const MaxTraceHops = 64

var errBadTraceContext = errors.New("obs: malformed trace context")

// ParseTraceContext decodes the wire form Trace.Context renders,
// "<trace-id>/<parent-id>/<hop>/<0|1>"; slashes inside the parent ID are
// tolerated, so node IDs need no escaping. It is strict about shape —
// callers treat any error as "no context" and count a clamp, never fail
// the request over it.
func ParseTraceContext(s string) (TraceContext, error) {
	if s == "" || len(s) > 256 {
		return TraceContext{}, errBadTraceContext
	}
	// Trace ID is the first segment; hop and sampled bit are the last two.
	// Whatever sits between is the parent ID, slashes and all.
	first := strings.IndexByte(s, '/')
	if first < 0 {
		return TraceContext{}, errBadTraceContext
	}
	rest := s[first+1:]
	last := strings.LastIndexByte(rest, '/')
	if last < 0 {
		return TraceContext{}, errBadTraceContext
	}
	sampled := rest[last+1:]
	rest = rest[:last]
	mid := strings.LastIndexByte(rest, '/')
	if mid < 0 {
		return TraceContext{}, errBadTraceContext
	}
	tc := TraceContext{TraceID: s[:first], ParentID: rest[:mid]}

	if _, ok := parseTraceID(tc.TraceID); !ok {
		return TraceContext{}, errBadTraceContext
	}
	hop, err := strconv.Atoi(rest[mid+1:])
	if err != nil || hop < 0 || hop > MaxTraceHops {
		return TraceContext{}, errBadTraceContext
	}
	tc.Hop = hop
	switch sampled {
	case "0":
	case "1":
		tc.Sampled = true
	default:
		return TraceContext{}, errBadTraceContext
	}
	return tc, nil
}

// TraceID is a group-wide trace identifier, held as the number it is
// minted as; the zero value means no trace (an unsampled request).
type TraceID uint64

// String renders the wire and JSON form: 16 lowercase hex digits.
func (id TraceID) String() string {
	var b [16]byte
	return string(id.appendHex(b[:0]))
}

func (id TraceID) appendHex(b []byte) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[id>>shift&0xf])
	}
	return b
}

// parseTraceID decodes the wire form, rejecting anything but 16 lowercase
// hex digits.
func parseTraceID(s string) (TraceID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return 0, false
		}
	}
	n, err := strconv.ParseUint(s, 16, 64)
	return TraceID(n), err == nil
}

// Trace-ID generation: a per-process random seed mixed with an atomic
// sequence through a splitmix64 finalizer. IDs are unique within a process
// and collide across nodes only if their 64-bit seeds do.
var (
	traceSeed = func() uint64 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
	traceSeq atomic.Uint64
)

// NewTraceID mints a fresh trace ID.
func NewTraceID() TraceID {
	z := traceSeed + traceSeq.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return TraceID(z)
}
