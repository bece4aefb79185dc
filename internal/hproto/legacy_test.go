package hproto

// The Fprintf/map codec this package shipped before the append-based
// rewrite, kept verbatim (bar the legacy prefix) as the reference the
// golden and differential tests compare against: the rewrite must emit
// the same bytes and accept, reject and decode the same inputs.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// legacyWriteRequest serialises req. For a Push request the caller must write
// exactly req.SizeHint body bytes immediately after.
func legacyWriteRequest(w io.Writer, req Request) error {
	if strings.ContainsAny(req.URL, " \r\n") || req.URL == "" {
		return fmt.Errorf("%w: bad URL %q", ErrMalformed, req.URL)
	}
	if len(req.URL) > maxURLLen {
		return ErrTooLong
	}
	if req.Push && req.Resolve {
		return fmt.Errorf("%w: push request cannot resolve", ErrMalformed)
	}
	method := "GET"
	if req.Push {
		if req.SizeHint < 0 {
			return fmt.Errorf("%w: negative push size %d", ErrMalformed, req.SizeHint)
		}
		method = "PUT"
	}
	resolve := ""
	if req.Resolve {
		resolve = ResolveHeader + ": 1\r\n"
	}
	ring := ""
	if req.RingFP != 0 {
		ring = RingHeader + ": " + strconv.FormatUint(req.RingFP, 16) + "\r\n"
	}
	trace, err := legacyTraceHeaderLine(req.Trace)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s %s %s\r\n%s: %s\r\n%s: %d\r\n%s%s%s\r\n",
		method, req.URL, ProtoVersion,
		AgeHeader, FormatAge(req.RequesterAge),
		SizeHintHeader, req.SizeHint,
		resolve, ring, trace)
	if err != nil {
		return fmt.Errorf("hproto: write request: %w", err)
	}
	return nil
}

// legacyTraceHeaderLine renders the optional trace-context header. The value is
// opaque but must still be a legal single header value: writing is the one
// place strictness is cheap and correct (we own the value), reading stays
// tolerant (the peer's value is dropped when oversized, never fatal).
func legacyTraceHeaderLine(v string) (string, error) {
	if v == "" {
		return "", nil
	}
	if len(v) > maxTraceLen {
		return "", fmt.Errorf("%w: trace context", ErrTooLong)
	}
	if strings.ContainsAny(v, " \r\n") {
		return "", fmt.Errorf("%w: bad trace context %q", ErrMalformed, v)
	}
	return TraceHeader + ": " + v + "\r\n", nil
}

// legacyReadRequest parses one request from r.
func legacyReadRequest(r *bufio.Reader) (Request, error) {
	line, err := legacyReadLine(r)
	if err != nil {
		return Request{}, err
	}
	parts := strings.Split(line, " ")
	if len(parts) != 3 || (parts[0] != "GET" && parts[0] != "PUT") || parts[2] != ProtoVersion {
		return Request{}, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	req := Request{URL: parts[1], Push: parts[0] == "PUT"}
	headers, err := legacyReadHeaders(r)
	if err != nil {
		return Request{}, err
	}
	if v, ok := headers[AgeHeader]; ok {
		if req.RequesterAge, req.AgeClamped, err = ParseAgeClamped(v); err != nil {
			return Request{}, err
		}
	}
	if v, ok := headers[SizeHintHeader]; ok {
		req.SizeHint, err = strconv.ParseInt(v, 10, 64)
		if err != nil || req.SizeHint < 0 {
			return Request{}, fmt.Errorf("%w: bad size hint %q", ErrMalformed, v)
		}
	}
	if v, ok := headers[ResolveHeader]; ok {
		if v != "1" {
			return Request{}, fmt.Errorf("%w: bad resolve flag %q", ErrMalformed, v)
		}
		req.Resolve = true
	}
	if v, ok := headers[RingHeader]; ok {
		req.RingFP, err = strconv.ParseUint(v, 16, 64)
		if err != nil {
			return Request{}, fmt.Errorf("%w: bad ring fingerprint %q", ErrMalformed, v)
		}
	}
	if v, ok := headers[TraceHeader]; ok && len(v) <= maxTraceLen {
		req.Trace = v
	}
	if req.Push && req.Resolve {
		return Request{}, fmt.Errorf("%w: push request cannot resolve", ErrMalformed)
	}
	return req, nil
}

// legacyWriteResponse serialises resp followed by exactly ContentLength bytes
// copied from body (body may be nil when ContentLength is 0).
func legacyWriteResponse(w io.Writer, resp Response, body io.Reader) error {
	reason := "OK"
	if resp.Status == StatusNotFound {
		reason = "Not-Found"
	}
	source := ""
	if resp.Source != "" {
		if resp.Source != SourceCache && resp.Source != SourceOrigin {
			return fmt.Errorf("%w: bad source %q", ErrMalformed, resp.Source)
		}
		source = SourceHeader + ": " + resp.Source + "\r\n"
	}
	trace, err := legacyTraceHeaderLine(resp.Trace)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s %d %s\r\n%s: %s\r\nContent-Length: %d\r\n%s%s\r\n",
		ProtoVersion, resp.Status, reason,
		AgeHeader, FormatAge(resp.ResponderAge),
		resp.ContentLength,
		source, trace)
	if err != nil {
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

// legacyReadResponse parses the response head; the caller then reads exactly
// ContentLength body bytes from r.
func legacyReadResponse(r *bufio.Reader) (Response, error) {
	line, err := legacyReadLine(r)
	if err != nil {
		return Response{}, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || parts[0] != ProtoVersion {
		return Response{}, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil || (status != StatusOK && status != StatusNotFound) {
		return Response{}, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	resp := Response{Status: status}
	headers, err := legacyReadHeaders(r)
	if err != nil {
		return Response{}, err
	}
	if v, ok := headers[AgeHeader]; ok {
		if resp.ResponderAge, resp.AgeClamped, err = ParseAgeClamped(v); err != nil {
			return Response{}, err
		}
	}
	if v, ok := headers["Content-Length"]; ok {
		resp.ContentLength, err = strconv.ParseInt(v, 10, 64)
		if err != nil || resp.ContentLength < 0 {
			return Response{}, fmt.Errorf("%w: content length %q", ErrMalformed, v)
		}
	}
	if v, ok := headers[SourceHeader]; ok {
		if v != SourceCache && v != SourceOrigin {
			return Response{}, fmt.Errorf("%w: source %q", ErrMalformed, v)
		}
		resp.Source = v
	}
	if v, ok := headers[TraceHeader]; ok && len(v) <= maxTraceLen {
		resp.Trace = v
	}
	return resp, nil
}

func legacyReadLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("hproto: read: %w", err)
	}
	if len(line) > maxURLLen+64 {
		return "", ErrTooLong
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func legacyReadHeaders(r *bufio.Reader) (map[string]string, error) {
	headers := make(map[string]string, 4)
	for lines := 0; ; lines++ {
		line, err := legacyReadLine(r)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return headers, nil
		}
		if lines >= 32 || len(line) > maxHeaderLen {
			return nil, ErrTooLong
		}
		name, value, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		headers[strings.TrimSpace(name)] = strings.TrimSpace(value)
	}
}
