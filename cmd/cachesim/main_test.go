package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/obs"
	"eacache/internal/sim"
	"eacache/internal/trace"
)

func writeTempTrace(t *testing.T) string {
	t.Helper()
	return writeTrace(t, 0.002)
}

// writeTrace writes a generated BU-like trace at scale to a file.
func writeTrace(t *testing.T, scale float64) string {
	t.Helper()
	records, err := trace.Generate(trace.BULike().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, records); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseBytes: -aggregate takes the shared size syntax; an accepted
// size reaches the group (the run line prints it back), a rejected one
// fails the run with an error that names it.
func TestParseBytes(t *testing.T) {
	path := writeTempTrace(t)
	tests := []struct {
		in  string
		agg string // the run line's agg= field, for an accepted size
		ok  bool
	}{
		{"100KB", "100KB", true},
		{"1MB", "1MB", true},
		{"1GB", "1GB", true},
		{"4096", "4KB", true},
		{"512B", "512B", true},
		{" 10 mb ", "10MB", true},
		{"0", "", false},
		{"-5KB", "", false},
		{"abc", "", false},
		{"", "", false},
	}
	for _, tt := range tests {
		var out, errOut bytes.Buffer
		err := run([]string{"-trace", path, "-caches", "1", "-aggregate", tt.in}, nil, &out, &errOut)
		if (err == nil) != tt.ok {
			t.Fatalf("-aggregate %q: err = %v, want ok=%v", tt.in, err, tt.ok)
		}
		if !tt.ok && !strings.Contains(err.Error(), fmt.Sprintf("%q", tt.in)) {
			t.Fatalf("-aggregate %q: error %q does not name the input", tt.in, err)
		}
		if tt.ok && !strings.Contains(out.String(), " agg="+tt.agg+":") {
			t.Fatalf("-aggregate %q: output lacks agg=%s:\n%s", tt.in, tt.agg, out.String())
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	path := writeTempTrace(t)
	var out, errOut bytes.Buffer
	err := run([]string{
		"-trace", path,
		"-scheme", "ea",
		"-caches", "4",
		"-aggregate", "64KB",
		"-per-cache",
	}, nil, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"trace:", "run:", "hit=", "replication:", "cache-0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunHierarchicalLFU(t *testing.T) {
	path := writeTempTrace(t)
	var out, errOut bytes.Buffer
	err := run([]string{
		"-trace", path,
		"-scheme", "adhoc",
		"-arch", "hierarchical",
		"-policy", "lfu",
		"-caches", "2",
		"-aggregate", "128KB",
	}, nil, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "hierarchical") {
		t.Fatalf("output missing architecture:\n%s", out.String())
	}
}

func TestRunFromStdin(t *testing.T) {
	records, err := trace.Generate(trace.BULike().Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	if err := trace.Write(&in, records); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-aggregate", "32KB"}, &in, &out, &errOut); err != nil {
		t.Fatalf("run from stdin: %v", err)
	}
}

func TestRunBUFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bu.log")
	bu := "beaker 784900000 u3 http://cs-www.bu.edu/ 2009 0.5\n" +
		"not a log line\n" +
		"beaker 784900001 u3 http://cs-www.bu.edu/ 2009 0.1\n"
	if err := os.WriteFile(path, []byte(bu), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-trace", path, "-format", "bu", "-caches", "1", "-aggregate", "16KB"},
		nil, &out, &errOut)
	if err != nil {
		t.Fatalf("run bu: %v", err)
	}
	if !strings.Contains(out.String(), "2 requests") {
		t.Fatalf("unexpected stats:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "skipped 1 unparseable BU log lines") {
		t.Fatalf("skip note missing from stderr: %q", errOut.String())
	}
}

// unreadable is a stdin that fails the test if anything reads it.
type unreadable struct{ t *testing.T }

func (r unreadable) Read([]byte) (int, error) {
	r.t.Error("the trace was read before the flags were checked")
	return 0, io.EOF
}

// TestRunRejectsBadFlags: a bad flag fails the run before the trace is
// read — on stdin, reading would consume it.
func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad scheme":          {"-scheme", "bogus"},
		"bad arch":            {"-arch", "ring"},
		"bad policy":          {"-policy", "fifo"},
		"gds policy":          {"-policy", "gds"},
		"size policy":         {"-policy", "size"},
		"lfuda policy":        {"-policy", "lfuda"},
		"bad format":          {"-format", "xml"},
		"bad size":            {"-aggregate", "lots"},
		"bad location":        {"-location", "telepathy"},
		"bad warmup":          {"-warmup", "1"},
		"no caches":           {"-caches", "0"},
		"cumulative, horizon": {"-window", "-1", "-horizon", "1h"},
	} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(args, unreadable{t}, &out, &errOut); err == nil {
				t.Fatalf("%v accepted", args)
			}
		})
	}
}

func TestRunDigestWarmup(t *testing.T) {
	path := writeTempTrace(t)
	var out, errOut bytes.Buffer
	err := run([]string{
		"-trace", path,
		"-scheme", "ea",
		"-caches", "3",
		"-aggregate", "96KB",
		"-location", "digest",
		"-warmup", "0.25",
		"-popularity",
		"-policy", "lfu",
		"-horizon", "2h",
	}, nil, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "popularity:") {
		t.Fatalf("missing popularity line:\n%s", out.String())
	}
}

func TestRunRejectsBadLocation(t *testing.T) {
	path := writeTempTrace(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"-trace", path, "-location", "telepathy"}, nil, &out, &errOut); err == nil {
		t.Fatal("bad location accepted")
	}
}

// decisionsOf runs cachesim with -decisions n and decodes the JSON array
// that ends its output.
func decisionsOf(t *testing.T, path string, n int) []obs.Decision {
	t.Helper()
	var out, errOut bytes.Buffer
	err := run([]string{
		"-trace", path, "-scheme", "ea", "-aggregate", "1MB", "-decisions", fmt.Sprint(n),
	}, nil, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	i := strings.Index(s, "\n[")
	if i < 0 {
		t.Fatalf("no decision array in output:\n%s", s)
	}
	var ds []obs.Decision
	if err := json.Unmarshal([]byte(s[i:]), &ds); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRunDecisionTrace: -decisions N prints the last N verdicts of the
// replay, in the shape a live node serves on /debug/placement.
func TestRunDecisionTrace(t *testing.T) {
	path := writeTrace(t, 0.02)
	all := decisionsOf(t, path, 1<<20)
	last := decisionsOf(t, path, 5)
	if len(all) < 5 || !reflect.DeepEqual(last, all[len(all)-5:]) {
		t.Fatalf("-decisions 5 = %+v, want the last 5 of %d", last, len(all))
	}
	roles := map[string]bool{}
	for _, d := range all {
		roles[d.Role+" "+d.Verdict] = true
	}
	for _, want := range []string{"requester accept", "requester reject", "responder promote", "responder reject"} {
		if !roles[want] {
			t.Errorf("no %q verdict in %d decisions", want, len(all))
		}
	}
}

// TestRunWindowCumulative: -window -1 is the cumulative signal
// (group.CumulativeAges), and 0 the group's default horizon.
func TestRunWindowCumulative(t *testing.T) {
	path := writeTrace(t, 0.02)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	trace.SortByTime(trace.CleanZeroSizes(records, trace.DefaultDocSize))
	g, err := group.New(group.Config{
		Caches: 4, AggregateBytes: 1 << 20, Scheme: core.EA{},
		ExpirationWindow: group.CumulativeAges,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(g, records, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		window string
		same   bool
	}{{"-1", true}, {"0", false}} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-trace", path, "-aggregate", "1MB", "-window", tc.window}, nil, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out.String(), rep.String()); got != tc.same {
			t.Errorf("-window %s matches the cumulative run: %v, want %v\n%s\n%s", tc.window, got, tc.same, out.String(), rep)
		}
	}
}
