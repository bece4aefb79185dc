package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// traceRecord mirrors one /debug/trace entry (obs.Trace JSON).
type traceRecord struct {
	ID             string     `json:"id"`
	TraceID        string     `json:"trace_id"`
	ParentID       string     `json:"parent_id"`
	Hop            int        `json:"hop"`
	Node           string     `json:"node"`
	URL            string     `json:"url"`
	Start          time.Time  `json:"start"`
	Outcome        string     `json:"outcome"`
	SizeBytes      int64      `json:"size_bytes"`
	Responder      string     `json:"responder"`
	RequesterAgeMS int64      `json:"requester_age_ms"`
	ResponderAgeMS int64      `json:"responder_age_ms"`
	Decision       string     `json:"decision"`
	Stored         bool       `json:"stored"`
	Err            string     `json:"err"`
	DurUS          int64      `json:"dur_us"`
	Spans          []spanJSON `json:"spans"`
	AdminAddr      string     `json:"admin_addr"` // which member held the record
}

type spanJSON struct {
	Stage   string            `json:"stage"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Err     string            `json:"err,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Timeline is one stitched distributed trace.
type Timeline struct {
	TraceID string        `json:"trace_id"`
	Records []traceRecord `json:"records"`
}

func buildTimeline(cl *client, seed, traceID string, stderr io.Writer) (*Timeline, error) {
	addrs, err := discover(cl, seed, stderr)
	if err != nil {
		return nil, err
	}
	tl := &Timeline{TraceID: traceID}
	for _, a := range addrs {
		var recs []traceRecord
		if err := cl.getJSON(a, "/debug/trace?trace="+traceID, &recs); err != nil {
			fmt.Fprintf(stderr, "eacctl: scrape %s: %v\n", a, err)
			continue
		}
		for i := range recs {
			recs[i].AdminAddr = a
		}
		tl.Records = append(tl.Records, recs...)
	}
	if len(tl.Records) == 0 {
		return nil, fmt.Errorf("no member holds trace %s (rings are bounded; old traces age out)", traceID)
	}
	// Causal order: forwarding depth first, then wall-clock start. Clocks
	// across nodes are close enough on one group for display; the hop and
	// parent IDs carry the real causality.
	sort.Slice(tl.Records, func(i, j int) bool {
		if tl.Records[i].Hop != tl.Records[j].Hop {
			return tl.Records[i].Hop < tl.Records[j].Hop
		}
		return tl.Records[i].Start.Before(tl.Records[j].Start)
	})
	return tl, nil
}

func renderTimeline(w io.Writer, tl *Timeline) {
	nodes := map[string]bool{}
	for _, r := range tl.Records {
		nodes[r.Node] = true
	}
	fmt.Fprintf(w, "trace %s: %d record(s) across %d node(s)\n", tl.TraceID, len(tl.Records), len(nodes))
	if len(tl.Records) > 0 {
		fmt.Fprintf(w, "url: %s\n", tl.Records[0].URL)
	}
	for _, r := range tl.Records {
		indent := strings.Repeat("  ", r.Hop)
		fmt.Fprintf(w, "%s[hop %d] %s %s — %s in %s", indent, r.Hop, r.Node, r.ID, r.Outcome, usDur(r.DurUS))
		if r.ParentID != "" {
			fmt.Fprintf(w, " (parent %s)", r.ParentID)
		}
		fmt.Fprintln(w)
		if r.Decision != "" {
			fmt.Fprintf(w, "%s    placement: %s (requester age %s, responder age %s)\n",
				indent, r.Decision, msAge(r.RequesterAgeMS), msAge(r.ResponderAgeMS))
		}
		if r.Err != "" {
			fmt.Fprintf(w, "%s    error: %s\n", indent, r.Err)
		}
		for _, sp := range r.Spans {
			fmt.Fprintf(w, "%s    %-14s +%s %s", indent, sp.Stage, usDur(sp.StartUS), usDur(sp.DurUS))
			if len(sp.Attrs) > 0 {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(w, " %s=%s", k, sp.Attrs[k])
				}
			}
			if sp.Err != "" {
				fmt.Fprintf(w, " err=%s", sp.Err)
			}
			fmt.Fprintln(w)
		}
	}
}

func usDur(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).String()
}

func msAge(ms int64) string {
	if ms < 0 {
		return "none"
	}
	return (time.Duration(ms) * time.Millisecond).String()
}
