package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eacache/internal/experiments"
	"eacache/internal/trace"
)

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, id := range experiments.IDs {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("missing %q in list:\n%s", id, out.String())
		}
	}
}

func TestRunSubset(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-scale", "0.002", "-run", "fig1,table1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== fig1:") || !strings.Contains(s, "== table1:") {
		t.Fatalf("missing experiment headers:\n%s", s)
	}
	if strings.Contains(s, "== fig2:") {
		t.Fatal("ran an experiment that was not requested")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-scale", "0.002", "-run", "nope"}, &out, &errOut); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunWithTraceFile(t *testing.T) {
	records, err := trace.Generate(trace.BULike().Scaled(0.002))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, records); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	var out, errOut bytes.Buffer
	if err := run([]string{"-trace", path, "-run", "replication"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== replication:") {
		t.Fatalf("missing output:\n%s", out.String())
	}
}

func TestRunMissingTraceFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-trace", "/nonexistent/t.txt"}, &out, &errOut); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunMultiSeedMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-scale", "0.002", "-seeds", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "multiseed") || !strings.Contains(s, "+/-") {
		t.Fatalf("multiseed output missing:\n%s", s)
	}
}

func TestRunMultiSeedRejectsTraceFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-seeds", "3", "-trace", "/tmp/whatever.txt"}, &out, &errOut); err == nil {
		t.Fatal("-seeds with -trace accepted")
	}
}

// stubGenerate replaces the trace generator for one test.
func stubGenerate(t *testing.T, gen func(trace.GenConfig) ([]trace.Record, error)) {
	t.Helper()
	old := generate
	generate = gen
	t.Cleanup(func() { generate = old })
}

// TestRunChecksFlagsBeforeIO: a bad flag fails the run before any trace
// is generated or read.
func TestRunChecksFlagsBeforeIO(t *testing.T) {
	stubGenerate(t, func(trace.GenConfig) ([]trace.Record, error) {
		t.Error("a trace was generated before the flags were checked")
		return nil, errors.New("stub")
	})
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-seeds", "-1"}, "-seeds must not be negative"},
		{[]string{"-scale", "0"}, "-scale must be positive"},
		{[]string{"-scale", "-0.5", "-seeds", "3"}, "-scale must be positive"},
		{[]string{"-seeds", "3", "-trace", "/nonexistent/t.txt"}, "-seeds needs generated workloads"},
		{[]string{"-run", "fig1, nope"}, `unknown experiment "nope"`},
	} {
		var out, errOut bytes.Buffer
		err := run(tc.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestRunMultiSeedGeneratesEachSeedOnce: -seeds N draws seeds -seed ..
// -seed+N-1, one trace each, and no base trace besides.
func TestRunMultiSeedGeneratesEachSeedOnce(t *testing.T) {
	var drawn []uint64
	stubGenerate(t, func(cfg trace.GenConfig) ([]trace.Record, error) {
		drawn = append(drawn, cfg.Seed)
		return trace.Generate(cfg)
	})
	var out, errOut bytes.Buffer
	if err := run([]string{"-scale", "0.002", "-seeds", "3", "-seed", "5"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drawn, []uint64{5, 6, 7}) {
		t.Fatalf("generated seeds %v, want [5 6 7]", drawn)
	}
}
