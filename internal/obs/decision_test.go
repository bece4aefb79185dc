package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkDecision(i int, verdict, traceID string) Decision {
	return Decision{
		Time:       time.Unix(int64(i), 0),
		Node:       "n1",
		URL:        fmt.Sprintf("http://origin/doc-%d", i),
		Role:       RoleRequester,
		Verdict:    verdict,
		LocalAgeMS: int64(i * 10),
		PeerAgeMS:  -1,
		SizeBytes:  512,
		TraceID:    traceID,
	}
}

func TestDecisionLogRingSemantics(t *testing.T) {
	l := NewDecisionLog(4)
	if n := len(l.Snapshot()); n != 0 {
		t.Fatalf("fresh log holds %d decisions", n)
	}
	for i := 0; i < 6; i++ {
		l.Record(mkDecision(i, DecisionAccept, ""), nil)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d, want capacity 4", len(snap))
	}
	// Oldest first, and the two earliest records were overwritten.
	for i, d := range snap {
		want := fmt.Sprintf("http://origin/doc-%d", i+2)
		if d.URL != want {
			t.Fatalf("slot %d holds %q, want %q", i, d.URL, want)
		}
	}
}

func TestDecisionLogWriteJSONFilters(t *testing.T) {
	l := NewDecisionLog(16)
	l.Record(mkDecision(0, DecisionAccept, "aaaaaaaaaaaaaaaa"), nil)
	l.Record(mkDecision(1, DecisionReject, "aaaaaaaaaaaaaaaa"), nil)
	l.Record(mkDecision(2, DecisionAccept, "bbbbbbbbbbbbbbbb"), nil)

	decode := func(traceID, verdict string) []Decision {
		t.Helper()
		var buf bytes.Buffer
		if err := l.WriteJSON(&buf, traceID, verdict); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		var out []Decision
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, buf.String())
		}
		return out
	}

	if got := decode("", ""); len(got) != 3 {
		t.Fatalf("unfiltered dump holds %d, want 3", len(got))
	}
	if got := decode("aaaaaaaaaaaaaaaa", ""); len(got) != 2 {
		t.Fatalf("trace filter kept %d, want 2", len(got))
	}
	got := decode("aaaaaaaaaaaaaaaa", DecisionReject)
	if len(got) != 1 || got[0].Verdict != DecisionReject || got[0].URL != "http://origin/doc-1" {
		t.Fatalf("combined filter wrong: %+v", got)
	}
	// The schema carries the eq.-5 inputs.
	if got[0].LocalAgeMS != 10 || got[0].PeerAgeMS != -1 || got[0].SizeBytes != 512 {
		t.Fatalf("decision inputs lost in JSON: %+v", got[0])
	}
}

// TestDecisionLogConcurrent hammers Record from several goroutines while
// snapshots run; the race detector is the real assertion.
func TestDecisionLogConcurrent(t *testing.T) {
	l := NewDecisionLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record(mkDecision(g*1000+i, DecisionAccept, ""), nil)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, d := range l.Snapshot() {
				if d.Node != "n1" {
					panic("corrupt record")
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if n := len(l.Snapshot()); n != 64 {
		t.Fatalf("len = %d, want 64", n)
	}
}

func TestNilDecisionLogInert(t *testing.T) {
	var l *DecisionLog
	l.Record(mkDecision(0, DecisionAccept, ""), nil)
	if l.Snapshot() != nil {
		t.Fatal("nil log must be inert")
	}
}
