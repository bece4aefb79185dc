package trace

import (
	"fmt"
	"strings"
	"time"
)

// Stats summarises a reference stream. It is used to verify that synthetic
// traces match the published shape of the BU logs and to describe inputs in
// experiment reports.
type Stats struct {
	Requests      int
	UniqueDocs    int
	UniqueClients int
	TotalBytes    int64
	UniqueBytes   int64
	ZeroSize      int
	Start, End    time.Time
}

// ComputeStats scans records once and summarises them.
func ComputeStats(records []Record) Stats {
	var s Stats
	s.Requests = len(records)
	docs := make(map[string]int64, len(records)/4)
	clients := make(map[Client]struct{})
	var first, last int64
	for i, r := range records {
		if i == 0 {
			first, last = r.UnixNano, r.UnixNano
		}
		first, last = min(first, r.UnixNano), max(last, r.UnixNano)
		s.TotalBytes += r.Size
		if r.Size == 0 {
			s.ZeroSize++
		}
		if _, seen := docs[r.URL]; !seen {
			docs[r.URL] = r.Size
			s.UniqueBytes += r.Size
		}
		clients[r.Client] = struct{}{}
	}
	s.Start, s.End = time.Unix(0, first).UTC(), time.Unix(0, last).UTC()
	s.UniqueDocs = len(docs)
	s.UniqueClients = len(clients)
	return s
}

// Span returns the duration covered by the trace.
func (s Stats) Span() time.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.End.Sub(s.Start)
}

// MeanSize returns the mean document size over all requests.
func (s Stats) MeanSize() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Requests)
}

// String implements fmt.Stringer with a one-paragraph summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests, %d unique docs, %d clients, ", s.Requests, s.UniqueDocs, s.UniqueClients)
	fmt.Fprintf(&b, "%.1f MB total (%.0f B mean), %d zero-size, span %s",
		float64(s.TotalBytes)/(1<<20), s.MeanSize(), s.ZeroSize, s.Span().Round(time.Minute))
	return b.String()
}
