package persist

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eacache/internal/cache"
)

// Group-commit tests: a group of goroutines committing to one journal at
// once, as the sharded store's per-shard event sinks do. Every
// acknowledged append is in the file, no frame lands in the wrong
// generation across a rotation, and Close keeps them all.

func groupEventTime(i int) time.Time {
	return time.Date(2001, time.March, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
}

// TestGroupCommitConcurrentAppends drives concurrent appenders, then
// recovers WITHOUT closing the first persister: Append's write-through
// contract means every returned append must already be in the file.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers = 12
	const docs = 20
	const hitsPerDoc = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := 0; d < docs; d++ {
				doc := cache.Document{
					URL:  fmt.Sprintf("http://w%d.example.edu/d%d", w, d),
					Size: int64(100 + d),
				}
				p.Append(cache.Event{Kind: cache.EventInsert, Doc: doc, At: groupEventTime(d)})
				for h := 0; h < hitsPerDoc; h++ {
					p.Append(cache.Event{Kind: cache.EventHit, Doc: doc, At: groupEventTime(d + h + 1)})
				}
				if d%4 == 3 {
					p.Append(cache.Event{Kind: cache.EventRemove, Doc: doc, At: groupEventTime(d + 10)})
				}
			}
		}(w)
	}
	wg.Wait()

	// Second persister on the same (still open) dir — the journal file
	// must already hold every acknowledged append.
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	st := q.RecoveredState()
	byURL := map[string]EntryState{}
	for _, e := range st.Entries {
		byURL[e.URL] = e
	}
	wantLive := workers * (docs - docs/4)
	if len(byURL) != wantLive {
		t.Fatalf("recovered %d live entries, want %d", len(byURL), wantLive)
	}
	for w := 0; w < workers; w++ {
		for d := 0; d < docs; d++ {
			url := fmt.Sprintf("http://w%d.example.edu/d%d", w, d)
			e, ok := byURL[url]
			if d%4 == 3 {
				if ok {
					t.Fatalf("%s recovered despite remove", url)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s lost: acknowledged appends not in journal", url)
			}
			if want := int64(1 + hitsPerDoc); e.Hits != want {
				t.Fatalf("%s recovered with %d hits, want %d", url, e.Hits, want)
			}
		}
	}
	if rep := q.Report(); rep.DiscardedBytes != 0 || rep.Discarded != "" {
		t.Fatalf("concurrent append journal was damaged: %+v", rep)
	}
}

// TestGroupCommitRotateBarrier rotates the journal repeatedly while
// appenders run. Every acknowledged append must survive recovery across
// the whole generation chain, and every generation must replay cleanly —
// no frame can straddle or trail into the wrong generation.
func TestGroupCommitRotateBarrier(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const docs = 40
	var appenders, rotator sync.WaitGroup
	stop := make(chan struct{})
	rotator.Add(1)
	go func() {
		defer rotator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.Rotate(); err != nil {
				t.Errorf("Rotate: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for w := 0; w < workers; w++ {
		appenders.Add(1)
		go func(w int) {
			defer appenders.Done()
			for d := 0; d < docs; d++ {
				p.Append(cache.Event{
					Kind: cache.EventInsert,
					Doc: cache.Document{
						URL:  fmt.Sprintf("http://w%d.example.edu/d%d", w, d),
						Size: 64,
					},
					At: groupEventTime(d),
				})
			}
		}(w)
	}
	appenders.Wait()
	close(stop)
	rotator.Wait()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if rep := q.Report(); rep.DiscardedBytes != 0 || rep.Discarded != "" {
		t.Fatalf("rotated journals damaged: %+v", rep)
	}
	got := map[string]bool{}
	for _, e := range q.RecoveredState().Entries {
		got[e.URL] = true
	}
	if len(got) != workers*docs {
		t.Fatalf("recovered %d entries, want %d", len(got), workers*docs)
	}
}

// TestGroupCommitCloseDrains: every Append that returned before Close must
// be recovered, Close is idempotent, and an Append after it writes
// nothing.
func TestGroupCommitCloseDrains(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 100
	for d := 0; d < docs; d++ {
		p.Append(cache.Event{
			Kind: cache.EventInsert,
			Doc:  cache.Document{URL: fmt.Sprintf("http://h/d%d", d), Size: 1},
			At:   groupEventTime(d),
		})
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	p.Append(cache.Event{ // append after close is a silent no-op
		Kind: cache.EventInsert,
		Doc:  cache.Document{URL: "http://h/late", Size: 1},
		At:   groupEventTime(0),
	})

	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	st := q.RecoveredState()
	if len(st.Entries) != docs {
		t.Fatalf("recovered %d entries, want %d", len(st.Entries), docs)
	}
	for _, e := range st.Entries {
		if e.URL == "http://h/late" {
			t.Fatal("append after Close leaked into the journal")
		}
	}
}
