package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eacache/internal/trace"
)

func writeTempTrace(t *testing.T) string {
	t.Helper()
	records, err := trace.Generate(trace.BULike().Scaled(0.002))
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
}

func TestRunRejectsBadFlags(t *testing.T) {
	path := writeTempTrace(t)
	for name, args := range map[string][]string{
		"bad scheme":   {"-trace", path, "-scheme", "bogus"},
		"bad arch":     {"-trace", path, "-arch", "ring"},
		"bad policy":   {"-trace", path, "-policy", "fifo"},
		"gds policy":   {"-trace", path, "-policy", "gds"},
		"size policy":  {"-trace", path, "-policy", "size"},
		"lfuda policy": {"-trace", path, "-policy", "lfuda"},
		"bad format":   {"-trace", path, "-format", "xml"},
		"bad size":     {"-trace", path, "-aggregate", "lots"},
	} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(args, nil, &out, &errOut); err == nil {
				t.Fatalf("%v accepted", args)
			}
		})
	}
}

func TestRunDigestTTLWarmup(t *testing.T) {
	path := writeTempTrace(t)
	var out, errOut bytes.Buffer
	err := run([]string{
		"-trace", path,
		"-scheme", "ea",
		"-caches", "3",
		"-aggregate", "96KB",
		"-location", "digest",
		"-ttl",
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

func TestRunDecisionTrace(t *testing.T) {
	path := writeTempTrace(t)
	var out, errOut bytes.Buffer
	err := run([]string{
		"-trace", path, "-scheme", "ea", "-aggregate", "64KB", "-decisions", "5",
	}, nil, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "origin-fetch") {
		t.Fatalf("no decision lines in output:\n%s", out.String())
	}
}
