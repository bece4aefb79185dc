package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the traced run, from the benchmark's own code and
// around its calls into each layer; nothing inside internal/ is touched.
// They stay in memory until the run ends and are then written as one JSON
// file under artifacts/.

// requestSpan is the root span of one Node.Request call.
type requestSpan struct {
	ID      int    `json:"id"`
	Node    int    `json:"node"`
	Rank    int    `json:"url_rank"`
	Outcome string `json:"outcome"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// probeSpan is one timed batch of calls into a layer's public function,
// parented to the probe pass.
type probeSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Calls   int    `json:"calls"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanCapPerClient bounds the request spans kept per client; local_hot
// would otherwise record millions.
const spanCapPerClient = 20000

type spanFile struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Note     string        `json:"note"`
	Requests []requestSpan `json:"request_spans"`
	Probes   []probeSpan   `json:"probe_spans"`
}

// spanLog collects the traced run's spans.
type spanLog struct {
	epoch    time.Time
	nextID   int
	requests []requestSpan
	probes   []probeSpan
	passID   int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), nextID: 1} }

func (l *spanLog) id() int {
	l.nextID++
	return l.nextID - 1
}

func (l *spanLog) addRequests(phaseStart time.Time, clients []*client) {
	shift := phaseStart.Sub(l.epoch).Nanoseconds()
	for _, c := range clients {
		for _, s := range c.spans {
			s.ID = l.id()
			s.StartNS += shift
			s.EndNS += shift
			l.requests = append(l.requests, s)
		}
	}
}

// beginPass opens the probe pass: the parent of every probe span.
func (l *spanLog) beginPass() {
	l.passID = l.id()
	l.probes = append(l.probes, probeSpan{ID: l.passID, Name: "probe-pass", StartNS: time.Since(l.epoch).Nanoseconds()})
}

func (l *spanLog) endPass() {
	for i := range l.probes {
		if l.probes[i].ID == l.passID {
			l.probes[i].EndNS = time.Since(l.epoch).Nanoseconds()
		}
	}
}

func (l *spanLog) addProbe(name string, calls int, start, end time.Time) {
	l.probes = append(l.probes, probeSpan{
		ID: l.id(), Parent: l.passID, Name: name, Calls: calls,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds(),
	})
}

func (l *spanLog) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("bench-spans-%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(spanFile{
		Workload: workload, Seed: seed,
		Note:     fmt.Sprintf("times are ns after the traced run began; at most %d request spans per client are kept", spanCapPerClient),
		Requests: l.requests, Probes: l.probes,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
