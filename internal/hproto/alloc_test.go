package hproto

import (
	"bufio"
	"io"
	"strings"
	"testing"
	"time"

	"eacache/internal/race"
)

// TestAllocBudgets holds the codec to its garbage budget: the writers
// allocate nothing, a request read materialises only its URL (plus a
// present trace value), an untraced response read nothing.
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	req := Request{URL: "http://host.example.edu/some/doc.html", RequesterAge: 90 * time.Second, SizeHint: 4096, Resolve: true, RingFP: 0xdeadbeef}
	traced := req
	traced.Trace = "0123456789abcdef/n1-000042/2/1"
	resp := Response{Status: StatusOK, ResponderAge: 33 * time.Second, Source: SourceCache}

	wire := func(write func(io.Writer) error) string {
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	reqWire := wire(func(w io.Writer) error { return WriteRequest(w, req) })
	tracedWire := wire(func(w io.Writer) error { return WriteRequest(w, traced) })
	respWire := wire(func(w io.Writer) error { return WriteResponse(w, resp, nil) })
	src := strings.NewReader("")
	br := bufio.NewReader(src)
	readReq := func(wire string) func() {
		return func() {
			src.Reset(wire)
			br.Reset(src)
			if _, err := ReadRequest(br); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tt := range []struct {
		name   string
		budget float64
		f      func()
	}{
		{"WriteRequest", 0, func() { _ = WriteRequest(io.Discard, traced) }},
		{"WriteResponse", 0, func() { _ = WriteResponse(io.Discard, resp, nil) }},
		{"ReadRequest", 1, readReq(reqWire)},
		{"ReadRequest traced", 2, readReq(tracedWire)},
		{"ReadResponse", 0, func() {
			src.Reset(respWire)
			br.Reset(src)
			if _, err := ReadResponse(br); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, tt.f); got > tt.budget {
			t.Errorf("%s: %.1f allocs per call, budget %.0f", tt.name, got, tt.budget)
		}
	}
}
