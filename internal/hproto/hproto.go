// Package hproto implements the inter-proxy document transfer protocol of
// the paper: an HTTP/1.0-style request/response exchange in which each side
// piggybacks its cache expiration age on the message it was already sending
// ("the only extra information that is communicated among proxies is the
// Cache Expiration Age ... piggybacked on either a HTTP request message or
// a HTTP response message", §3.4). No extra connections and no extra round
// trips are introduced — exactly the paper's zero-overhead claim.
//
// Wire format (CRLF line endings, ASCII):
//
//	GET <url> EAC/1.0
//	X-Cache-Expiration-Age: <milliseconds|inf>
//	X-Size-Hint: <bytes>
//
//	EAC/1.0 <200 OK|404 Not-Found>
//	X-Cache-Expiration-Age: <milliseconds|inf>
//	Content-Length: <bytes>
//
//	<body>
//
// A PUT request line marks a migration handoff (Request.Push): the sender
// offers the document, X-Size-Hint is the exact body length that follows,
// and the response's status says whether the receiver kept the copy.
package hproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"eacache/internal/cache"
)

// Protocol constants.
const (
	ProtoVersion = "EAC/1.0"
	// AgeHeader carries the sender's cache expiration age.
	AgeHeader = "X-Cache-Expiration-Age"
	// SizeHintHeader lets a requester tell an origin simulator how large
	// the document should be (trace-driven runs know sizes up front).
	SizeHintHeader = "X-Size-Hint"
	// ResolveHeader marks a hierarchical miss-resolution request: the
	// receiving parent must fetch the document from upstream when it is
	// not cached, instead of answering 404 (paper §3.3).
	ResolveHeader = "X-Resolve"
	// SourceHeader tells the requester whether the body came from the
	// responder's cache or was resolved from the origin, so a child can
	// classify the outcome (remote hit vs miss) like the paper does.
	SourceHeader = "X-Source"

	// TraceHeader carries the compact distributed-tracing context
	// (obs.TraceContext wire form: trace ID, parent span ID, hop count,
	// sampled bit) piggybacked the same way the expiration age is: on
	// messages already being sent, costing no extra round trip. hproto
	// treats the value as opaque — the obs layer owns the format — and a
	// receiver that cannot parse it must drop it, never fail the exchange.
	TraceHeader = "X-Trace-Context"

	// RingHeader carries the requester's topology fingerprint (hex) on a
	// hash-routed resolve request, so the responder can tell "every owner
	// before me is down" (views agree: act as home, keep the copy) from
	// "the requester has not heard about the real owner yet" (views
	// differ: relay without keeping, or a second copy would be minted).
	RingHeader = "X-Ring"

	// SourceCache and SourceOrigin are the SourceHeader values.
	SourceCache  = "cache"
	SourceOrigin = "origin"

	contentLengthHeader = "Content-Length"

	maxURLLen = 8 * 1024
	// maxLineLen caps any one line: the longest URL plus the rest of the
	// request line, with slack.
	maxLineLen   = maxURLLen + 64
	maxHeaderLen = 1 * 1024
	maxHeaders   = 32
	// maxTraceLen bounds the opaque trace-context value we are willing to
	// carry; anything longer is dropped on read and rejected on write.
	maxTraceLen = 256
)

// Status codes.
const (
	StatusOK       = 200
	StatusNotFound = 404
)

var space, colon = []byte(" "), []byte(":")

// Errors.
var (
	ErrMalformed = errors.New("hproto: malformed message")
	ErrTooLong   = errors.New("hproto: line too long")
	// ErrTruncatedBody reports a body that ended before the advertised
	// Content-Length — the signature of a responder that died (or was
	// reset) mid-transfer. Callers match it to decide whether a retry
	// against another copy holder is worthwhile.
	ErrTruncatedBody = errors.New("hproto: truncated body")
)

// Request is an inter-proxy document request.
type Request struct {
	// URL of the wanted document.
	URL string
	// RequesterAge is the requester's cache expiration age.
	RequesterAge time.Duration
	// SizeHint is the expected document size, or 0 if unknown.
	SizeHint int64
	// Resolve asks a hierarchical parent to fetch the document from
	// upstream on a miss instead of answering 404.
	Resolve bool
	// Push marks a migration handoff: the sender offers the document to
	// the receiver instead of asking for it. The request line uses the
	// PUT method, SizeHint is the exact body length that follows the
	// blank line, and the receiver answers StatusOK when it stored the
	// copy or StatusNotFound when it refused (not the owner, draining,
	// or out of space) — either way piggybacking its own expiration age,
	// which the sender uses to EA-gate later transfers. Push and Resolve
	// are mutually exclusive.
	Push bool
	// RingFP is the requester's topology fingerprint
	// (chash.Ring.Fingerprint) on a hash-routed resolve request; zero
	// means absent (non-hash requesters never send it).
	RingFP uint64
	// AgeClamped reports that the wire carried a negative or overflowing
	// expiration age and RequesterAge is the clamped substitute — a
	// misbehaving peer, worth counting (eac_wire_clamps_total) but not worth
	// failing the exchange over.
	AgeClamped bool
	// Trace is the opaque distributed-tracing context (TraceHeader), empty
	// when the request is untraced. hproto does not interpret it; an
	// oversized value is dropped on read, not fatal.
	Trace string
}

// Response is the reply carrying the document and the responder's age.
type Response struct {
	// Status is StatusOK or StatusNotFound.
	Status int
	// ResponderAge is the responder's cache expiration age.
	ResponderAge time.Duration
	// ContentLength is the body size that follows.
	ContentLength int64
	// Source reports where the body came from: SourceCache (the
	// responder held it) or SourceOrigin (it was resolved upstream).
	// Empty is treated as SourceCache for compatibility.
	Source string
	// AgeClamped reports that the wire carried a negative or overflowing
	// expiration age and ResponderAge is the clamped substitute.
	AgeClamped bool
	// Trace echoes the tracing context back to the requester (with the
	// responder's own span record as the parent ID), so the requester can
	// link the remote leg into its trace. Opaque to hproto.
	Trace string
}

// FormatAge renders an expiration age for the wire: integer milliseconds,
// or "inf" for cache.NoContention (a cache that has evicted nothing).
func FormatAge(age time.Duration) string { return string(appendAge(nil, age)) }

func appendAge(b []byte, age time.Duration) []byte {
	if age >= cache.NoContention {
		return append(b, "inf"...)
	}
	if age < 0 {
		age = 0
	}
	return strconv.AppendInt(b, age.Milliseconds(), 10)
}

// ParseAge parses a wire-format expiration age strictly: negative and
// non-numeric values are errors. The message readers use ParseAgeClamped
// instead, so a misbehaving peer cannot fail an exchange with a hostile
// age value.
func ParseAge(s string) (time.Duration, error) {
	age, clamped, err := ParseAgeClamped(s)
	if err != nil {
		return 0, err
	}
	if clamped {
		return 0, fmt.Errorf("%w: bad age %q", ErrMalformed, s)
	}
	return age, nil
}

// maxAgeMillis is the largest millisecond count representable as a
// time.Duration; anything above it would overflow the multiplication.
const maxAgeMillis = math.MaxInt64 / int64(time.Millisecond)

// ParseAgeClamped parses a wire-format expiration age without trusting
// the peer: a negative value clamps to zero (maximum contention claims
// nothing it could not claim with "0") and a value too large for a
// time.Duration clamps to NoContention (it was asserting effectively
// infinite headroom anyway). clamped reports that such a substitution
// happened so the caller can count the misbehaving peer. Only a
// non-numeric value — line noise, not a number at all — is an error.
func ParseAgeClamped(s string) (age time.Duration, clamped bool, err error) {
	if s == "inf" {
		return cache.NoContention, false, nil
	}
	ms, perr := strconv.ParseInt(s, 10, 64)
	if perr != nil {
		if !errors.Is(perr, strconv.ErrRange) {
			// Clone, as strconv's own errors do, so s does not escape and
			// the readers can pass a view of their buffer for free.
			return 0, false, fmt.Errorf("%w: bad age %q", ErrMalformed, strings.Clone(s))
		}
		// Out of int64 range entirely: clamp by sign.
		if strings.HasPrefix(strings.TrimSpace(s), "-") {
			return 0, true, nil
		}
		return cache.NoContention, true, nil
	}
	switch {
	case ms < 0:
		return 0, true, nil
	case ms > maxAgeMillis:
		return cache.NoContention, true, nil
	}
	return time.Duration(ms) * time.Millisecond, false, nil
}

// headPool recycles the buffers message heads are assembled in. A head is
// a few hundred bytes (8 KB and change at the URL cap), built with append
// and handed to the connection in one Write; the buffer goes back to the
// pool before any body streams, so a slow transfer pins none.
var headPool = sync.Pool{New: func() any { return new([]byte) }}

// writeHead sends b, the head assembled in pooled buffer bp, and frees bp.
func writeHead(w io.Writer, bp *[]byte, b []byte) error {
	_, err := w.Write(b)
	*bp = b[:0]
	headPool.Put(bp)
	return err
}

// checkTrace vets the optional trace-context value. It is opaque but must
// still be a legal single header value: writing is the one place
// strictness is cheap and correct (we own the value), reading stays
// tolerant (the peer's value is dropped when oversized, never fatal).
func checkTrace(v string) error {
	if len(v) > maxTraceLen {
		return fmt.Errorf("%w: trace context", ErrTooLong)
	}
	if strings.ContainsAny(v, " \r\n") {
		return fmt.Errorf("%w: bad trace context %q", ErrMalformed, v)
	}
	return nil
}

// appendHeader appends "name: value\r\n".
func appendHeader(b []byte, name, value string) []byte {
	return append(append(append(append(b, name...), ": "...), value...), "\r\n"...)
}

// WriteRequest serialises req. For a Push request the caller must write
// exactly req.SizeHint body bytes immediately after.
func WriteRequest(w io.Writer, req Request) error {
	if strings.ContainsAny(req.URL, " \r\n") || req.URL == "" {
		return fmt.Errorf("%w: bad URL %q", ErrMalformed, req.URL)
	}
	if len(req.URL) > maxURLLen {
		return ErrTooLong
	}
	if req.Push && req.Resolve {
		return fmt.Errorf("%w: push request cannot resolve", ErrMalformed)
	}
	method := "GET "
	if req.Push {
		if req.SizeHint < 0 {
			return fmt.Errorf("%w: negative push size %d", ErrMalformed, req.SizeHint)
		}
		method = "PUT "
	}
	if err := checkTrace(req.Trace); err != nil {
		return err
	}
	bp := headPool.Get().(*[]byte)
	b := append(*bp, method...)
	b = append(b, req.URL...)
	b = append(b, " "+ProtoVersion+"\r\n"+AgeHeader+": "...)
	b = appendAge(b, req.RequesterAge)
	b = append(b, "\r\n"+SizeHintHeader+": "...)
	b = strconv.AppendInt(b, req.SizeHint, 10)
	b = append(b, "\r\n"...)
	if req.Resolve {
		b = appendHeader(b, ResolveHeader, "1")
	}
	if req.RingFP != 0 {
		b = append(b, RingHeader+": "...)
		b = strconv.AppendUint(b, req.RingFP, 16)
		b = append(b, "\r\n"...)
	}
	if req.Trace != "" {
		b = appendHeader(b, TraceHeader, req.Trace)
	}
	b = append(b, "\r\n"...)
	if err := writeHead(w, bp, b); err != nil {
		return fmt.Errorf("hproto: write request: %w", err)
	}
	return nil
}

// ReadRequest parses one request from r.
func ReadRequest(r *bufio.Reader) (Request, error) {
	line, err := readLine(r)
	if err != nil {
		return Request{}, err
	}
	// Exactly "<GET|PUT> <url> EAC/1.0": two spaces, so none in the URL.
	method, rest, _ := bytes.Cut(line, space)
	url, proto, ok := bytes.Cut(rest, space)
	push := string(method) == "PUT"
	if !ok || (!push && string(method) != "GET") || string(proto) != ProtoVersion {
		return Request{}, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	req := Request{URL: string(url), Push: push}
	// A repeated header replaces the earlier value, its parse error
	// included, and errors surface in field order once the head is
	// complete: only the last of each name decides.
	var ageErr, sizeErr, resolveErr, ringErr error
	for n := 0; ; n++ {
		name, value, more, err := readHeader(r, n)
		if err != nil {
			return Request{}, err
		}
		if !more {
			break
		}
		switch string(name) {
		case AgeHeader:
			req.RequesterAge, req.AgeClamped, ageErr = ParseAgeClamped(string(value))
		case SizeHintHeader:
			req.SizeHint, sizeErr = parseSize(value, "size hint")
		case ResolveHeader:
			req.Resolve, resolveErr = true, nil
			if string(value) != "1" {
				resolveErr = fmt.Errorf("%w: bad resolve flag %q", ErrMalformed, value)
			}
		case RingHeader:
			if req.RingFP, ringErr = strconv.ParseUint(string(value), 16, 64); ringErr != nil {
				ringErr = fmt.Errorf("%w: bad ring fingerprint %q", ErrMalformed, value)
			}
		case TraceHeader:
			req.Trace = traceValue(value)
		}
	}
	if err := errors.Join(ageErr, sizeErr, resolveErr, ringErr); err != nil {
		return Request{}, err
	}
	if req.Push && req.Resolve {
		return Request{}, fmt.Errorf("%w: push request cannot resolve", ErrMalformed)
	}
	return req, nil
}

// WriteResponse serialises resp followed by exactly ContentLength bytes
// copied from body (body may be nil when ContentLength is 0).
func WriteResponse(w io.Writer, resp Response, body io.Reader) error {
	if resp.Source != "" && resp.Source != SourceCache && resp.Source != SourceOrigin {
		return fmt.Errorf("%w: bad source %q", ErrMalformed, resp.Source)
	}
	if err := checkTrace(resp.Trace); err != nil {
		return err
	}
	bp := headPool.Get().(*[]byte)
	b := append(*bp, ProtoVersion+" "...)
	b = strconv.AppendInt(b, int64(resp.Status), 10)
	if resp.Status == StatusNotFound {
		b = append(b, " Not-Found\r\n"+AgeHeader+": "...)
	} else {
		b = append(b, " OK\r\n"+AgeHeader+": "...)
	}
	b = appendAge(b, resp.ResponderAge)
	b = append(b, "\r\n"+contentLengthHeader+": "...)
	b = strconv.AppendInt(b, resp.ContentLength, 10)
	b = append(b, "\r\n"...)
	if resp.Source != "" {
		b = appendHeader(b, SourceHeader, resp.Source)
	}
	if resp.Trace != "" {
		b = appendHeader(b, TraceHeader, resp.Trace)
	}
	b = append(b, "\r\n"...)
	if err := writeHead(w, bp, b); err != nil {
		return fmt.Errorf("hproto: write response: %w", err)
	}
	if resp.ContentLength > 0 {
		if body == nil {
			return fmt.Errorf("%w: missing body", ErrMalformed)
		}
		// A body that can write itself (io.WriterTo) skips io.CopyN's
		// per-call copy buffer — the serve path hands in pooled-buffer
		// bodies, so a cache hit allocates nothing here.
		if wt, ok := body.(io.WriterTo); ok {
			n, werr := wt.WriteTo(w)
			if werr != nil {
				return fmt.Errorf("hproto: write body: %w", werr)
			}
			if n != resp.ContentLength {
				return fmt.Errorf("hproto: write body: wrote %d of %d bytes", n, resp.ContentLength)
			}
			return nil
		}
		if _, err := io.CopyN(w, body, resp.ContentLength); err != nil {
			return fmt.Errorf("hproto: write body: %w", err)
		}
	}
	return nil
}

// ReadResponse parses the response head; the caller then reads exactly
// ContentLength body bytes from r.
func ReadResponse(r *bufio.Reader) (Response, error) {
	line, err := readLine(r)
	if err != nil {
		return Response{}, err
	}
	// "EAC/1.0 <status>[ <reason>]"; the reason is free text.
	proto, rest, ok := bytes.Cut(line, space)
	if !ok || string(proto) != ProtoVersion {
		return Response{}, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	code, _, _ := bytes.Cut(rest, space)
	status, err := strconv.Atoi(string(code))
	if err != nil || (status != StatusOK && status != StatusNotFound) {
		return Response{}, fmt.Errorf("%w: status %q", ErrMalformed, code)
	}
	resp := Response{Status: status}
	// Last duplicate wins, errors in field order: see ReadRequest.
	var ageErr, lengthErr, sourceErr error
	for n := 0; ; n++ {
		name, value, more, err := readHeader(r, n)
		if err != nil {
			return Response{}, err
		}
		if !more {
			break
		}
		switch string(name) {
		case AgeHeader:
			resp.ResponderAge, resp.AgeClamped, ageErr = ParseAgeClamped(string(value))
		case contentLengthHeader:
			resp.ContentLength, lengthErr = parseSize(value, "content length")
		case SourceHeader:
			resp.Source, sourceErr = SourceCache, nil
			if string(value) == SourceOrigin {
				resp.Source = SourceOrigin
			} else if string(value) != SourceCache {
				sourceErr = fmt.Errorf("%w: source %q", ErrMalformed, value)
			}
		case TraceHeader:
			resp.Trace = traceValue(value)
		}
	}
	if err := errors.Join(ageErr, lengthErr, sourceErr); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// parseSize parses a non-negative byte count.
func parseSize(v []byte, what string) (int64, error) {
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: bad %s %q", ErrMalformed, what, v)
	}
	return n, nil
}

// traceValue materialises a trace-context value; oversized, it is dropped.
func traceValue(v []byte) string {
	if len(v) > maxTraceLen {
		return ""
	}
	return string(v)
}

// readLine returns the next line without its line ending. The result is a
// view into r's buffer and dies at the next read from r: callers copy out
// (string(...)) whatever must outlive it. Only a line longer than r's
// buffer — a 4-8 KB URL through the default 4096 B reader — is assembled
// in a buffer of its own.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := make([]byte, 0, 2*len(line))
		for err == bufio.ErrBufferFull && len(long) <= maxLineLen {
			long = append(long, line...)
			line, err = r.ReadSlice('\n')
		}
		line = append(long, line...)
	}
	if len(line) > maxLineLen {
		return nil, ErrTooLong
	}
	if err != nil {
		return nil, fmt.Errorf("hproto: read: %w", err)
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readHeader reads header line n (from 0) of a head and splits it into
// trimmed name and value, both views like readLine's; more is false at
// the blank line that ends the head.
func readHeader(r *bufio.Reader, n int) (name, value []byte, more bool, err error) {
	line, err := readLine(r)
	if err != nil || len(line) == 0 {
		return nil, nil, false, err
	}
	if n >= maxHeaders || len(line) > maxHeaderLen {
		return nil, nil, false, ErrTooLong
	}
	name, value, found := bytes.Cut(line, colon)
	if !found {
		return nil, nil, false, fmt.Errorf("%w: header %q", ErrMalformed, line)
	}
	return bytes.TrimSpace(name), bytes.TrimSpace(value), true, nil
}
