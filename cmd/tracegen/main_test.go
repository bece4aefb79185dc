package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eacache/internal/trace"
)

func TestRunToStdout(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-requests", "500", "-docs", "50", "-scale", "0.001", "-stats"},
		&out, &errOut); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&out)
	if err != nil {
		t.Fatalf("output not parseable: %v", err)
	}
	if len(records) != 500 {
		t.Fatalf("records = %d, want 500", len(records))
	}
	if !strings.Contains(errOut.String(), "500 requests") {
		t.Fatalf("missing stats on stderr: %s", errOut.String())
	}
}

func TestRunToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	var out, errOut bytes.Buffer
	if err := run([]string{"-scale", "0.001", "-o", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatal("wrote to stdout despite -o")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("empty trace file")
	}
	if !trace.Sorted(records) {
		t.Fatal("trace not sorted")
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	gen := func(seed string) string {
		var out, errOut bytes.Buffer
		if err := run([]string{"-requests", "200", "-docs", "30", "-scale", "0.001", "-seed", seed},
			&out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if gen("1") != gen("1") {
		t.Fatal("same seed produced different traces")
	}
	if gen("1") == gen("2") {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRunZipfOverride(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-requests", "300", "-docs", "40", "-users", "7",
		"-zipf", "1.1", "-scale", "0.001"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	stats := trace.ComputeStats(records)
	if stats.UniqueClients > 7 {
		t.Fatalf("clients = %d, want <= 7", stats.UniqueClients)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	// A 5-document catalogue is smaller than the default 24-document hot
	// head, which the generator must reject.
	var out, errOut bytes.Buffer
	if err := run([]string{"-requests", "10", "-docs", "5", "-scale", "0.001"},
		&out, &errOut); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunSquidOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-requests", "100", "-docs", "30", "-scale", "0.001",
		"-format", "squid"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	records, skipped, err := trace.ReadSquid(&out)
	if err != nil || skipped != 0 {
		t.Fatalf("squid output unparseable: %v, %d skipped", err, skipped)
	}
	if len(records) != 100 {
		t.Fatalf("records = %d", len(records))
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-requests", "10", "-docs", "30", "-scale", "0.001",
		"-format", "xml"}, &out, &errOut); err == nil {
		t.Fatal("bad format accepted")
	}
}

// TestRunBadFlagLeavesOutputFile: an unknown format or a negative
// override fails before the output file is created or truncated.
func TestRunBadFlagLeavesOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	const kept = "an earlier trace\n"
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-requests", "-1"},
		{"-docs", "-1"},
		{"-users", "-1"},
		{"-zipf", "-0.5"},
	} {
		if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		err := run(append(args, "-scale", "0.001", "-o", path), &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), strings.TrimPrefix(args[0], "-")) {
			t.Fatalf("%v: err = %v, want one naming the flag", args, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != kept {
			t.Fatalf("%v: output file now %q (%v), want it untouched", args, got, err)
		}
	}
}
