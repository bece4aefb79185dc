package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"eacache/internal/metrics"
	"eacache/internal/netnode"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesLedger keeps BENCHMARK.json and spec.go in step:
// same workloads, same metrics, same units and directions, a bound on
// every end-to-end metric and on no per-layer one.
func TestManifestMatchesLedger(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricSpec, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in spec.go", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is not a plain unit", g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25]", g.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end-to-end", m.EndToEnd, endToEnd, true)
	compare("per-layer", m.PerLayer, perLayer, false)
	if s := m.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better; got %+v", s)
	}
}

// TestSmoke runs every workload once, traced, at toy sizes, and checks
// that both result lines carry exactly the ledger's metric names, that
// the table prints each of them, and that no check failed. The numbers
// themselves mean nothing at this size.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var table bytes.Buffer
			rc := runConfig{workload: w.name, seed: 7, seconds: 0.4, traced: true, quick: true, scratch: t.TempDir(), log: &table}
			out, err := w.run(rc)
			if err != nil {
				t.Fatal(err)
			}
			out.print(rc, w)
			for _, f := range out.failures {
				t.Errorf("check failed: %s", f)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
			}
			for _, run := range []struct {
				traced bool
				specs  []metricSpec
			}{{false, endToEnd}, {true, perLayer}} {
				rl := out.result(run.traced)
				if !rl.Correct {
					t.Errorf("traced=%v: result line says incorrect", run.traced)
				}
				if len(rl.Metrics) != len(run.specs) {
					t.Errorf("traced=%v: %d metrics on the result line, want %d", run.traced, len(rl.Metrics), len(run.specs))
				}
				for _, m := range run.specs {
					got, ok := rl.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("traced=%v: metric %s missing or in unit %q, want %q", run.traced, m.name, got.Unit, m.unit)
					}
					if _, measured := out.values[m.name]; !measured {
						t.Errorf("%s was never measured", m.name)
					}
					if !strings.Contains(table.String(), " "+m.name+" ") {
						t.Errorf("table does not print %s", m.name)
					}
				}
			}
			for _, m := range endToEnd {
				if out.values[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, out.values[m.name])
				}
			}
		})
	}
}

// TestCheckerRejects: a wrong-size body, an unknown outcome and a request
// error are each a failed request, and one failed request or one failed
// check makes the result line incorrect.
func TestCheckerRejects(t *testing.T) {
	good := netnode.Result{Outcome: metrics.RemoteHit, Size: 4096}
	if class, fault := checkResult(good, nil, 4096); fault != "" || class != classRemote {
		t.Errorf("good result: class %d, fault %q", class, fault)
	}
	for name, tc := range map[string]struct {
		res netnode.Result
		err error
	}{
		"wrong size":      {netnode.Result{Outcome: metrics.LocalHit, Size: 4095}, nil},
		"unknown outcome": {netnode.Result{Outcome: 0, Size: 4096}, nil},
		"request error":   {netnode.Result{}, errors.New("boom")},
	} {
		if _, fault := checkResult(tc.res, tc.err, 4096); fault == "" {
			t.Errorf("%s: accepted", name)
		}
	}

	out := newOutcome()
	for _, m := range endToEnd {
		out.set(m.name, 1)
	}
	out.attempted = 10
	if !out.result(false).Correct {
		t.Fatal("clean outcome reported incorrect")
	}
	out.failed = 1
	if out.result(false).Correct {
		t.Error("a non-zero error count was accepted")
	}
	out.failed = 0
	out.check(false, "tier over capacity")
	if out.result(false).Correct {
		t.Error("a failed check was accepted")
	}
}

// TestCounterReaders: /proc/net/snmp parses, and an unreadable source is
// an error (reported as null with the reason), never a silent 0.
func TestCounterReaders(t *testing.T) {
	text := "Tcp: RtoAlgorithm ActiveOpens PassiveOpens\nTcp: 1 42 40\nUdp: InDatagrams NoPorts InErrors OutDatagrams\nUdp: 9 0 0 17\n"
	nc, err := parseNetCounters(text)
	if err != nil || nc.tcpActiveOpens != 42 || nc.udpOutDatagrams != 17 {
		t.Errorf("parseNetCounters = %+v, %v", nc, err)
	}
	if _, err := parseNetCounters("Tcp: RtoAlgorithm\nTcp: 1\n"); err == nil {
		t.Error("missing counters parsed without error")
	}
	out := newOutcome()
	out.unreadable("icp.datagrams_per_req", "no /proc")
	if v := out.values["icp.datagrams_per_req"]; v != -1 || !strings.HasPrefix(out.notes["icp.datagrams_per_req"], "null: ") {
		t.Errorf("unreadable metric reads %v with note %q", v, out.notes["icp.datagrams_per_req"])
	}
}

// TestUndisturbed: the speed estimator is the mean of the best eighth
// of the slices, from whichever end is better, and ignores how bad the
// disturbed slices were.
func TestUndisturbed(t *testing.T) {
	slow := []float64{10, 10.2, 10.1, 13, 12.9, 13.1, 40, 12.8, 13, 13.2, 12.7, 13, 10.3, 13.1, 12.9, 13}
	if got := undisturbed(slow, false); got != (10+10.1)/2 {
		t.Errorf("lower is better: %v, want %v", got, (10+10.1)/2)
	}
	if got := undisturbed([]float64{5, 9, 7}, true); got != 9 {
		t.Errorf("higher is better: %v, want 9", got)
	}
	if got := undisturbed(nil, false); got == got {
		t.Errorf("no slices: %v, want NaN", got)
	}
}
