package hproto

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"eacache/internal/cache"
)

// The tests in this file pin the codec's observable behaviour against
// the Fprintf/map implementation it replaced (legacy_test.go): same bytes
// out, same accept/reject decision and same decoded value in.

// readBoth parses in with the shipped reader and the legacy one, through a
// bufio.Reader of the given size (0 = the default 4096 B), and fails the
// test when they disagree on acceptance or on the decoded value.
func readBoth[T comparable](t *testing.T, in string, size int, read, legacy func(*bufio.Reader) (T, error)) (T, error) {
	t.Helper()
	got, err := read(sizedReader(in, size))
	want, werr := legacy(sizedReader(in, size))
	if (err == nil) != (werr == nil) || got != want {
		t.Fatalf("read %q: %+v, %v; legacy reader: %+v, %v", clip(in), got, err, want, werr)
	}
	return got, err
}

func readBothRequests(t *testing.T, in string, size int) (Request, error) {
	t.Helper()
	return readBoth(t, in, size, ReadRequest, legacyReadRequest)
}

func readBothResponses(t *testing.T, in string, size int) (Response, error) {
	t.Helper()
	return readBoth(t, in, size, ReadResponse, legacyReadResponse)
}

func sizedReader(in string, size int) *bufio.Reader {
	if size == 0 {
		return bufio.NewReader(strings.NewReader(in))
	}
	return bufio.NewReaderSize(strings.NewReader(in), size)
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// readerSizes are the bufio.Reader sizes every table case runs through:
// the pooled default, the smallest bufio allows (every line overflows it,
// so every line takes the ErrBufferFull fallback), and one that holds the
// longest legal line whole.
var readerSizes = []int{0, 16, 16 * 1024}

func TestReadRequestPinned(t *testing.T) {
	const line = "GET http://a/ EAC/1.0\r\n"
	pad := func(n int) string { return strings.Repeat("X-Pad: v\r\n", n) }
	longHeader := func(n int) string { return "X-Pad: " + strings.Repeat("v", n-len("X-Pad: ")) + "\r\n" }
	url := func(n int) string { return "http://a/" + strings.Repeat("u", n-len("http://a/")) }

	tests := []struct {
		name    string
		in      string
		want    Request
		wantErr error // nil: accepted; errAny: any error
	}{
		{name: "duplicate age: last wins",
			in:   line + "X-Cache-Expiration-Age: 5\r\nX-Cache-Expiration-Age: 7\r\n\r\n",
			want: Request{URL: "http://a/", RequesterAge: 7 * time.Millisecond}},
		{name: "duplicate age: clamped then clean reads clean",
			in:   line + "X-Cache-Expiration-Age: -5\r\nX-Cache-Expiration-Age: 5\r\n\r\n",
			want: Request{URL: "http://a/", RequesterAge: 5 * time.Millisecond}},
		{name: "duplicate age: clean then clamped reads clamped",
			in:   line + "X-Cache-Expiration-Age: 5\r\nX-Cache-Expiration-Age: -5\r\n\r\n",
			want: Request{URL: "http://a/", AgeClamped: true}},
		{name: "duplicate size hint: bad then good is accepted",
			in:   line + "X-Size-Hint: zz\r\nX-Size-Hint: 4\r\n\r\n",
			want: Request{URL: "http://a/", SizeHint: 4}},
		{name: "duplicate size hint: good then bad is rejected",
			in: line + "X-Size-Hint: 4\r\nX-Size-Hint: zz\r\n\r\n", wantErr: ErrMalformed},
		{name: "duplicate resolve: bad then good",
			in:   line + "X-Resolve: 0\r\nX-Resolve: 1\r\n\r\n",
			want: Request{URL: "http://a/", Resolve: true}},
		{name: "duplicate resolve: good then bad",
			in: line + "X-Resolve: 1\r\nX-Resolve: 0\r\n\r\n", wantErr: ErrMalformed},
		{name: "duplicate ring: last wins",
			in:   line + "X-Ring: zz\r\nX-Ring: ff\r\n\r\n",
			want: Request{URL: "http://a/", RingFP: 0xff}},
		{name: "duplicate trace: last wins",
			in:   line + "X-Trace-Context: t1\r\nX-Trace-Context: t2\r\n\r\n",
			want: Request{URL: "http://a/", Trace: "t2"}},
		{name: "duplicate trace: oversized last drops both",
			in:   line + "X-Trace-Context: t1\r\nX-Trace-Context: " + strings.Repeat("z", maxTraceLen+1) + "\r\n\r\n",
			want: Request{URL: "http://a/"}},
		{name: "duplicate trace: oversized first, legal last kept",
			in:   line + "X-Trace-Context: " + strings.Repeat("z", maxTraceLen+1) + "\r\nX-Trace-Context: t2\r\n\r\n",
			want: Request{URL: "http://a/", Trace: "t2"}},

		{name: "unknown headers ignored",
			in:   line + "Host: a\r\nX-Size-Hint: 9\r\nAccept: */*\r\n\r\n",
			want: Request{URL: "http://a/", SizeHint: 9}},
		{name: "header names are case-sensitive",
			in:   line + "x-size-hint: 9\r\nX-RESOLVE: 1\r\n\r\n",
			want: Request{URL: "http://a/"}},
		{name: "space around name and value trimmed",
			in:   line + "  X-Size-Hint \t:\t 9  \r\n\r\n",
			want: Request{URL: "http://a/", SizeHint: 9}},
		{name: "value may contain colons",
			in:   line + "X-Trace-Context: a:b:c\r\n\r\n",
			want: Request{URL: "http://a/", Trace: "a:b:c"}},
		{name: "bare LF and repeated CR line endings",
			in:   "GET http://a/ EAC/1.0\nX-Size-Hint: 9\r\r\n\n",
			want: Request{URL: "http://a/", SizeHint: 9}},
		{name: "header without colon", in: line + "nocolon\r\n\r\n", wantErr: ErrMalformed},
		{name: "empty URL between two spaces is accepted on read",
			in: "GET  EAC/1.0\r\n\r\n", want: Request{}},
		{name: "three spaces in request line", in: "GET a b EAC/1.0\r\n\r\n", wantErr: ErrMalformed},
		{name: "push", in: "PUT http://a/ EAC/1.0\r\nX-Size-Hint: 3\r\n\r\n",
			want: Request{URL: "http://a/", Push: true, SizeHint: 3}},
		{name: "push cannot resolve", in: "PUT http://a/ EAC/1.0\r\nX-Resolve: 1\r\n\r\n", wantErr: ErrMalformed},
		{name: "unterminated head", in: line + "X-Size-Hint: 9\r\n", wantErr: errAny},

		{name: "32 headers", in: line + pad(32) + "\r\n", want: Request{URL: "http://a/"}},
		{name: "33 headers", in: line + pad(33) + "\r\n", wantErr: ErrTooLong},
		{name: "1 KB header", in: line + longHeader(maxHeaderLen) + "\r\n", want: Request{URL: "http://a/"}},
		{name: "header past 1 KB", in: line + longHeader(maxHeaderLen+1) + "\r\n", wantErr: ErrTooLong},

		{name: "URL between 4 KB and 8 KB",
			in: "GET " + url(6000) + " EAC/1.0\r\nX-Size-Hint: 9\r\n\r\n", want: Request{URL: url(6000), SizeHint: 9}},
		{name: "URL of exactly 8 KB",
			in: "GET " + url(maxURLLen) + " EAC/1.0\r\n\r\n", want: Request{URL: url(maxURLLen)}},
		{name: "line past 8 KB + 64",
			in: "GET " + url(maxURLLen+64) + " EAC/1.0\r\n\r\n", wantErr: ErrTooLong},
		{name: "endless line", in: strings.Repeat("h", 3*maxURLLen), wantErr: errAny},
	}
	for _, tt := range tests {
		for _, size := range readerSizes {
			got, err := readBothRequests(t, tt.in, size)
			checkPinned(t, tt.name, size, got == tt.want, err, tt.wantErr)
		}
	}
}

func TestReadResponsePinned(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    Response
		wantErr error
	}{
		{name: "no reason phrase", in: "EAC/1.0 200\r\n\r\n", want: Response{Status: StatusOK}},
		{name: "reason phrase with spaces", in: "EAC/1.0 404 Not Found At All\r\n\r\n", want: Response{Status: StatusNotFound}},
		{name: "signed status", in: "EAC/1.0 +200 OK\r\n\r\n", want: Response{Status: StatusOK}},
		{name: "unknown status", in: "EAC/1.0 500 Oops\r\n\r\n", wantErr: ErrMalformed},
		{name: "status line without status", in: "EAC/1.0\r\n\r\n", wantErr: ErrMalformed},
		{name: "duplicate content length: last wins",
			in:   "EAC/1.0 200 OK\r\nContent-Length: zz\r\nContent-Length: 12\r\n\r\n",
			want: Response{Status: StatusOK, ContentLength: 12}},
		{name: "duplicate source: last wins",
			in:   "EAC/1.0 200 OK\r\nX-Source: teleport\r\nX-Source: origin\r\n\r\n",
			want: Response{Status: StatusOK, Source: SourceOrigin}},
		{name: "duplicate source: bad last",
			in: "EAC/1.0 200 OK\r\nX-Source: origin\r\nX-Source: teleport\r\n\r\n", wantErr: ErrMalformed},
		{name: "age, source, trace, unknown",
			in:   "EAC/1.0 200 OK\r\nX-Cache-Expiration-Age: inf\r\nServer: x\r\nX-Source: cache\r\nX-Trace-Context: t/p/1/1\r\nContent-Length: 0\r\n\r\n",
			want: Response{Status: StatusOK, ResponderAge: cache.NoContention, Source: SourceCache, Trace: "t/p/1/1"}},
		{name: "oversized trace dropped",
			in:   "EAC/1.0 200 OK\r\nX-Trace-Context: " + strings.Repeat("z", maxTraceLen+1) + "\r\n\r\n",
			want: Response{Status: StatusOK}},
		{name: "hostile age clamps",
			in:   "EAC/1.0 200 OK\r\nX-Cache-Expiration-Age: 99999999999999999999\r\n\r\n",
			want: Response{Status: StatusOK, ResponderAge: cache.NoContention, AgeClamped: true}},
		{name: "33 headers", in: "EAC/1.0 200 OK\r\n" + strings.Repeat("X-Pad: v\r\n", 33) + "\r\n", wantErr: ErrTooLong},
		{name: "status line past 8 KB + 64", in: "EAC/1.0 200 " + strings.Repeat("r", maxURLLen+64) + "\r\n\r\n", wantErr: ErrTooLong},
	}
	for _, tt := range tests {
		for _, size := range readerSizes {
			got, err := readBothResponses(t, tt.in, size)
			checkPinned(t, tt.name, size, got == tt.want, err, tt.wantErr)
		}
	}
}

// errAny marks a table case that must fail without naming the sentinel.
var errAny = errors.New("any error")

func checkPinned(t *testing.T, name string, size int, equal bool, err, wantErr error) {
	t.Helper()
	switch {
	case wantErr == nil && err != nil:
		t.Errorf("%s (reader %d): rejected: %v", name, size, err)
	case wantErr == nil && !equal:
		t.Errorf("%s (reader %d): decoded to the wrong value", name, size)
	case wantErr == errAny && err == nil:
		t.Errorf("%s (reader %d): accepted", name, size)
	case wantErr != nil && wantErr != errAny && !errors.Is(err, wantErr):
		t.Errorf("%s (reader %d): err = %v, want %v", name, size, err, wantErr)
	}
}

// TestReadLeavesBodyUnread: the head parser must stop at the blank line —
// the bytes after it are the caller's body, whichever path read the lines.
func TestReadLeavesBodyUnread(t *testing.T) {
	for _, size := range readerSizes {
		br := sizedReader("EAC/1.0 200 OK\r\nContent-Length: 4\r\n\r\nbodyNEXT", size)
		resp, err := ReadResponse(br)
		if err != nil || resp.ContentLength != 4 {
			t.Fatalf("reader %d: %+v, %v", size, resp, err)
		}
		rest := make([]byte, 8)
		if n, _ := br.Read(rest); !strings.HasPrefix("bodyNEXT", string(rest[:n])) || n == 0 {
			t.Fatalf("reader %d: body after head = %q", size, rest[:n])
		}
	}
}

// goldenRequests and goldenResponses span every field combination the
// writers branch on: both verbs, Resolve, RingFP, Trace, finite / zero /
// negative / infinite / nearly infinite ages, both sources and none.
func goldenRequests() []Request {
	var out []Request
	ages := []time.Duration{0, -time.Second, 1500 * time.Millisecond, 2 * time.Hour, cache.NoContention, cache.NoContention - 1}
	for _, age := range ages {
		for _, size := range []int64{0, 1, 1 << 40, -3} {
			for _, ring := range []uint64{0, 1, 0xdeadbeefcafe, ^uint64(0)} {
				for _, trace := range []string{"", "0123456789abcdef/n1-000042/2/1"} {
					for _, mode := range []struct{ push, resolve bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
						out = append(out, Request{URL: "http://a.example.edu/x?y=1", RequesterAge: age, SizeHint: size,
							Resolve: mode.resolve, Push: mode.push, RingFP: ring, Trace: trace})
					}
				}
			}
		}
	}
	return append(out,
		Request{URL: ""}, Request{URL: "has space"}, Request{URL: "has\rreturn"}, Request{URL: "has\nnewline"},
		Request{URL: "http://a/" + strings.Repeat("u", maxURLLen-9)}, Request{URL: "http://a/" + strings.Repeat("u", maxURLLen)},
		Request{URL: "eac:digest?since=18446744073709551615"},
		Request{URL: "http://a/", Trace: strings.Repeat("t", maxTraceLen)}, Request{URL: "http://a/", Trace: strings.Repeat("t", maxTraceLen+1)},
		Request{URL: "http://a/", Trace: "has space"}, Request{URL: "http://a/", Trace: "has\r\nnewline"},
	)
}

func goldenResponses() []Response {
	var out []Response
	ages := []time.Duration{0, -time.Second, 33 * time.Second, cache.NoContention, cache.NoContention - 1}
	for _, status := range []int{StatusOK, StatusNotFound, 500, 0} {
		for _, age := range ages {
			for _, source := range []string{"", SourceCache, SourceOrigin, "teleport"} {
				for _, trace := range []string{"", "0123456789abcdef/n2-000007/3/1", "has space", strings.Repeat("t", maxTraceLen+1)} {
					for _, length := range []int64{0, 5, -1} {
						out = append(out, Response{Status: status, ResponderAge: age, ContentLength: length, Source: source, Trace: trace})
					}
				}
			}
		}
	}
	return out
}

// TestWireGolden: byte-for-byte, the writers emit what the parent's did.
func TestWireGolden(t *testing.T) {
	// Literal anchors first, so the comparison below cannot pass by the
	// legacy copy and the rewrite drifting together.
	var buf bytes.Buffer
	if err := WriteRequest(&buf, Request{URL: "http://a/x", RequesterAge: 1500 * time.Millisecond, SizeHint: 42,
		Resolve: true, RingFP: 0xbeef, Trace: "t/p/1/1"}); err != nil {
		t.Fatal(err)
	}
	const wantReq = "GET http://a/x EAC/1.0\r\nX-Cache-Expiration-Age: 1500\r\nX-Size-Hint: 42\r\n" +
		"X-Resolve: 1\r\nX-Ring: beef\r\nX-Trace-Context: t/p/1/1\r\n\r\n"
	if buf.String() != wantReq {
		t.Fatalf("request wire:\n%q\nwant\n%q", buf.String(), wantReq)
	}
	buf.Reset()
	if err := WriteResponse(&buf, Response{Status: StatusNotFound, ResponderAge: cache.NoContention,
		Source: SourceOrigin, Trace: "t/p/2/1", ContentLength: 3}, strings.NewReader("abc")); err != nil {
		t.Fatal(err)
	}
	const wantResp = "EAC/1.0 404 Not-Found\r\nX-Cache-Expiration-Age: inf\r\nContent-Length: 3\r\n" +
		"X-Source: origin\r\nX-Trace-Context: t/p/2/1\r\n\r\nabc"
	if buf.String() != wantResp {
		t.Fatalf("response wire:\n%q\nwant\n%q", buf.String(), wantResp)
	}

	for _, req := range goldenRequests() {
		var got, want bytes.Buffer
		err, werr := WriteRequest(&got, req), legacyWriteRequest(&want, req)
		if (err == nil) != (werr == nil) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteRequest(%+v):\n%q, %v\nlegacy writer:\n%q, %v", req, clip(got.String()), err, clip(want.String()), werr)
		}
	}
	for _, resp := range goldenResponses() {
		var got, want bytes.Buffer
		body := func() *strings.Reader { return strings.NewReader("hello") }
		err, werr := WriteResponse(&got, resp, body()), legacyWriteResponse(&want, resp, body())
		if (err == nil) != (werr == nil) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteResponse(%+v):\n%q, %v\nlegacy writer:\n%q, %v", resp, clip(got.String()), err, clip(want.String()), werr)
		}
	}
}

// TestWriteIsOneWrite: the head reaches the connection in a single Write,
// so a peer never sees half a header block in one segment.
func TestWriteIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteRequest(&w, Request{URL: "http://a/", Resolve: true, RingFP: 7, Trace: "t/p/1/1"}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteRequest issued %d writes", w.writes)
	}
	w = countingWriter{}
	if err := WriteResponse(&w, Response{Status: StatusOK, Source: SourceCache}, nil); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteResponse head issued %d writes", w.writes)
	}
}

type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }
