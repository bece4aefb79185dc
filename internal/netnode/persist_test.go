package netnode

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"eacache/internal/core"
	"eacache/internal/metrics"
)

// startPersistentNode starts a node journaling into dir. The caller closes
// it; no t.Cleanup, because these tests restart nodes on the same dir.
func startPersistentNode(t *testing.T, id, dir, origin string) *Node {
	t.Helper()
	n, err := New(Config{
		ID:         id,
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      newStore(t, 1<<20),
		Scheme:     core.AdHoc{},
		OriginAddr: origin,
		ICPTimeout: 500 * time.Millisecond,
		DataDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWarmRestartOverWire is the tentpole end-to-end check: a node serves
// traffic, drains, and a new process (new Node, fresh store, same data
// dir) comes back remembering every document — the re-request is a local
// hit that never touches the origin.
func TestWarmRestartOverWire(t *testing.T) {
	origin := startOrigin(t)
	dir := t.TempDir()

	n1 := startPersistentNode(t, "p0", dir, origin.Addr())
	urls := make([]string, 8)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://warm.example.edu/doc%d", i)
		if _, err := n1.Request(urls[i], 1000); err != nil {
			t.Fatal(err)
		}
	}
	// A second round of hits so recovered hit counts are > 1.
	for _, u := range urls {
		res, err := n1.Request(u, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != metrics.LocalHit {
			t.Fatalf("pre-drain request = %+v", res)
		}
	}
	fetchesBefore := origin.Fetches()
	if err := n1.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.dat")); err != nil {
		t.Fatalf("drain left no snapshot: %v", err)
	}

	n2 := startPersistentNode(t, "p0", dir, origin.Addr())
	defer func() { _ = n2.Close() }()
	rep, ok := n2.Recovery()
	if !ok {
		t.Fatal("persistent node reports no recovery")
	}
	if rep.Restored.Entries != len(urls) || rep.Restored.Skipped != 0 {
		t.Fatalf("recovery = %+v, want %d entries", rep.Restored, len(urls))
	}
	if !rep.SnapshotLoaded || rep.Discarded != "" {
		t.Fatalf("recovery report = %+v", rep.Report)
	}
	for _, u := range urls {
		if !n2.Contains(u) {
			t.Fatalf("restarted node lost %s", u)
		}
		res, err := n2.Request(u, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != metrics.LocalHit {
			t.Fatalf("post-restart request = %+v", res)
		}
	}
	if origin.Fetches() != fetchesBefore {
		t.Fatalf("warm restart refetched from origin: %d -> %d", fetchesBefore, origin.Fetches())
	}
}

// TestKilledNodeRecoversFromJournal skips the graceful drain: the first
// node's servers are torn down without a checkpoint (only the journal made
// it to disk, as after kill -9) and the successor must still recover the
// cache from the journal alone.
func TestKilledNodeRecoversFromJournal(t *testing.T) {
	origin := startOrigin(t)
	dir := t.TempDir()

	n1 := startPersistentNode(t, "k0", dir, origin.Addr())
	url := "http://kill.example.edu/doc"
	if _, err := n1.Request(url, 2000); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: close the sockets so the port is free, but bypass
	// the persistence checkpoint a graceful shutdown would write.
	_ = n1.icpServer.Close()
	_ = n1.httpLn.Close()
	// The journal file was written synchronously by the event sink; the
	// abandoned Persister's state is exactly what a killed process leaves.

	n2 := startPersistentNode(t, "k0", dir, origin.Addr())
	defer func() { _ = n2.Close() }()
	rep, ok := n2.Recovery()
	if !ok || rep.SnapshotLoaded || rep.JournalRecords == 0 {
		t.Fatalf("recovery = %+v, ok=%v; want journal-only", rep, ok)
	}
	if !n2.Contains(url) {
		t.Fatal("journal-only restart lost the document")
	}
	res, err := n2.Request(url, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.LocalHit {
		t.Fatalf("post-crash request = %+v", res)
	}
	// n1 is deliberately never Closed: a graceful close would checkpoint
	// into the directory n2 now owns. The leaked handles die with the
	// test binary, exactly like the process they stand in for.
}

// TestCloseConcurrentWithRequests is the Close-race regression test: many
// in-flight Requests while several goroutines Close the node. Must not
// panic, double-close, or deadlock, and every Close call returns the same
// result.
func TestCloseConcurrentWithRequests(t *testing.T) {
	origin := startOrigin(t)
	n := startNode(t, "race", 1<<20, core.AdHoc{}, origin.Addr())

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				// Errors are expected once the node is closed; the point
				// is that nothing panics or hangs.
				_, _ = n.Request(fmt.Sprintf("http://race.example.edu/d%d-%d", g, i), 500)
			}
		}(g)
	}
	errs := make(chan error, 3)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Millisecond)
			errs <- n.Close()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	var first error
	i := 0
	for err := range errs {
		if i == 0 {
			first = err
		} else if err != first {
			t.Fatalf("concurrent Close results differ: %v vs %v", first, err)
		}
		i++
	}
}

// TestDrainWaitsForInFlight verifies the graceful path: a Drain issued
// while a request is in flight still lets it finish inside the deadline.
func TestDrainWaitsForInFlight(t *testing.T) {
	origin := startOrigin(t)
	n := startNode(t, "drain", 1<<20, core.AdHoc{}, origin.Addr())

	done := make(chan error, 1)
	go func() {
		_, err := n.Request("http://drain.example.edu/doc", 1000)
		done <- err
	}()
	// Give the request a moment to enter the node, then drain.
	time.Sleep(5 * time.Millisecond)
	if err := n.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		// Finished either way: served before the drain cut in, or failed
		// cleanly because the listener was already gone. Both are fine —
		// the test is that nothing hangs past the deadline.
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request hung across a drain")
	}
}
