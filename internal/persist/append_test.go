package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/race"
)

// demoteEvent is the frame a tier round trip journals most.
func demoteEvent() cache.Event {
	at := t0()
	return cache.Event{
		Kind: cache.EventDemote, Doc: cache.Document{URL: "http://spill.example.edu/documents/4711", Size: 8192, Expires: at.Add(time.Hour)},
		At: at.Add(5 * time.Second), Age: 30 * time.Second,
		EnteredAt: at, LastHit: at.Add(2 * time.Second), Hits: 4,
	}
}

// TestJournalGolden pins a whole journal generation byte for byte: every
// record kind once through a lone appender (one frame per batch), then 200
// copies of one demote frame from four appenders against a batch bound of
// three, so that batches of several frames and back-pressure are in the
// file too — the frames being equal, their order does not show. Every
// frame but the demote (now its URL alone) is what commit b9c72ce wrote
// for the same event; events with no frame leave no bytes.
func TestJournalGolden(t *testing.T) {
	const (
		goldenLen = 10370
		goldenSum = "f424c859bf69a2fc85ab09fc5ffa944c0281a9abbd0bf260cfebc532952af03b"
	)
	dir := t.TempDir()
	p, err := Open(Config{Dir: dir, BatchFrames: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sampleEvents() {
		p.Append(ev)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Append(demoteEvent())
			}
		}()
	}
	wg.Wait()
	// An event with no encoding is dropped and leaves no bytes behind, and
	// so does the one that is skipped.
	p.Append(cache.Event{Kind: cache.EventDemote, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://a/bad"}})
	p.Append(cache.Event{Kind: cache.EventRemove, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://a/5"}})
	p.Append(sampleEvents()[0])
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "journal.0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); len(raw) != goldenLen || got != goldenSum {
		t.Fatalf("journal is %d bytes, sha256 %s; the golden one is %d bytes, %s", len(raw), got, goldenLen, goldenSum)
	}
	if evs, good, damage := ReplayJournal(raw); damage != nil || good != len(raw) || len(evs) != len(sampleEvents())+201 {
		t.Fatalf("golden journal replays %d events over %d of %d bytes: %v", len(evs), good, len(raw), damage)
	}
}

// TestJournalAppendAllocs: in steady state Append encodes into the batch
// buffer it finds and the flusher writes that buffer as it stands, so a
// journalled demotion allocates nothing (6 on the parent: three growth
// steps for the payload, three for the frame). The detector's
// instrumentation allocates on its own, so the count is for plain builds;
// -short does not skip it.
func TestJournalAppendAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ev := demoteEvent()
	got := testing.AllocsPerRun(500, func() { p.Append(ev) })
	t.Logf("Append of a demote frame: %.1f allocations", got)
	if got != 0 {
		t.Fatalf("Append of a demote frame allocates %.1f times, want 0", got)
	}
}
