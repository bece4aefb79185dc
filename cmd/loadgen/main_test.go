package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestLoadgenSmoke runs a short unsaturated step against a live 2-node
// group and checks the artifact carries the tail percentiles and the
// saturation figure, with -check proving no shed/error at low load. The
// artifact goes into a directory that does not exist yet, as the default
// artifacts/loadgen.json does in a fresh checkout.
func TestLoadgenSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "artifacts", "loadgen.json")
	var buf bytes.Buffer
	err := run([]string{
		"-rps", "80", "-duration", "500ms", "-docs", "50",
		"-out", out, "-check",
	}, &buf)
	if err != nil {
		t.Fatalf("loadgen run: %v\n%s", err, buf.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if art.Nodes != 2 || len(art.Steps) != 1 {
		t.Fatalf("artifact shape: nodes=%d steps=%d", art.Nodes, len(art.Steps))
	}
	if art.P50MS <= 0 || art.P99MS < art.P50MS || art.P999MS < art.P99MS {
		t.Fatalf("percentiles not ordered: p50=%v p99=%v p999=%v", art.P50MS, art.P99MS, art.P999MS)
	}
	if art.SaturationRPS <= 0 {
		t.Fatalf("saturation rps = %v", art.SaturationRPS)
	}
	if st := art.Steps[0]; st.Errors != 0 || st.ShedByNode != 0 {
		t.Fatalf("unsaturated smoke saw errors=%d shed=%d", st.Errors, st.ShedByNode)
	}
	if !strings.Contains(buf.String(), "p99=") {
		t.Fatalf("summary output missing p99:\n%s", buf.String())
	}
}

// TestLoadgenChurnSmoke drives a join->drain->leave cycle through a
// live hash-mode step and checks the transition accounting: both swaps
// recorded, and -check stays green because no request failed inside (or
// outside) a transition window.
func TestLoadgenChurnSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_churn.json")
	var buf bytes.Buffer
	err := run([]string{
		"-rps", "100", "-duration", "900ms", "-docs", "60",
		"-locate", "hash", "-churn", "-check", "-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("churn run: %v\n%s", err, buf.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if !art.Churn {
		t.Fatal("artifact does not record churn mode")
	}
	st := art.Steps[0]
	if st.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2 (join and drain+leave)", st.Transitions)
	}
	if st.TransitionErrors != 0 || art.TransitionErrors != 0 {
		t.Fatalf("transition errors: step=%d total=%d", st.TransitionErrors, art.TransitionErrors)
	}
	if !strings.Contains(buf.String(), "2 transitions") {
		t.Fatalf("summary output missing churn line:\n%s", buf.String())
	}
}

// TestInTransition pins the window classification -check relies on:
// completion inside [From, To+settle) counts, before or after does not.
func TestInTransition(t *testing.T) {
	base := time.Now()
	windows := []transition{
		{What: "join", From: base, To: base.Add(50 * time.Millisecond)},
		{What: "leave", From: base.Add(time.Second), To: base.Add(1100 * time.Millisecond)},
	}
	for _, tc := range []struct {
		at   time.Duration
		want bool
	}{
		{-time.Millisecond, false},
		{0, true},
		{30 * time.Millisecond, true},
		{50*time.Millisecond + churnSettle - time.Millisecond, true},
		{50*time.Millisecond + churnSettle, false},
		{999 * time.Millisecond, false},
		{1050 * time.Millisecond, true},
		{1100*time.Millisecond + churnSettle, false},
	} {
		if got := inTransition(base.Add(tc.at), windows); got != tc.want {
			t.Errorf("inTransition(base+%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if inTransition(base, nil) {
		t.Error("no windows should classify nothing")
	}
}

func TestLoadgenFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-rps", "0"}, "-rps must be positive"},
		{[]string{"-nodes", "0"}, "-nodes must be positive"},
		{[]string{"-duration", "-1s"}, "-duration must be positive"},
		{[]string{"-docs", "0"}, "-docs must be positive"},
		{[]string{"-scheme", "bogus"}, "unknown scheme"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestLoadgenObsRecordsSlowTraces: with -obs every request is traced, so
// the artifact's tail sample must name real group-wide trace IDs an
// operator can hand to `eacctl trace`.
func TestLoadgenObsRecordsSlowTraces(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_obs.json")
	var buf bytes.Buffer
	err := run([]string{
		"-rps", "80", "-duration", "500ms", "-docs", "50",
		"-obs", "-out", out, "-check",
	}, &buf)
	if err != nil {
		t.Fatalf("loadgen -obs run: %v\n%s", err, buf.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if !art.Obs {
		t.Fatal("artifact does not mark the run as instrumented")
	}
	st := art.Steps[0]
	if len(st.SlowTraces) == 0 {
		t.Fatal("no slow traces recorded despite -obs")
	}
	if len(st.SlowTraces) > maxSlowTraces {
		t.Fatalf("slow-trace sample unbounded: %d", len(st.SlowTraces))
	}
	for i, s := range st.SlowTraces {
		if len(s.TraceID) != 16 {
			t.Fatalf("slow trace %d has malformed trace ID %q", i, s.TraceID)
		}
		if s.LatencyMS < st.P99MS {
			t.Fatalf("slow trace %d (%.2fms) is under the p99 threshold (%.2fms)", i, s.LatencyMS, st.P99MS)
		}
		if i > 0 && s.LatencyMS > st.SlowTraces[i-1].LatencyMS {
			t.Fatalf("slow traces not sorted by latency: %+v", st.SlowTraces)
		}
		if s.URL == "" || s.Node == "" || s.Outcome == "" {
			t.Fatalf("slow trace %d missing context: %+v", i, s)
		}
	}
}
