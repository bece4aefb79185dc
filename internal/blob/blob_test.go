package blob

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/dist"
)

// t0 is the workload epoch (wall-clock-free tests).
func t0() time.Time { return time.Unix(1_700_000_000, 0) }

// openStore builds a store over dir with a count-window tracker.
func openStore(t *testing.T, dir string, capacity int64) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Capacity: capacity, ExpirationWindow: 16})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// body returns a deterministic pseudorandom body for url.
func body(url string, size int64) []byte {
	h := sha256.Sum256([]byte(url))
	out := make([]byte, size)
	for i := range out {
		out[i] = h[i%len(h)]
	}
	return out
}

// admit stores url with a deterministic body and metadata derived from seq.
func admit(t *testing.T, s *Store, url string, size int64, seq int) cache.DiskEntry {
	t.Helper()
	now := t0().Add(time.Duration(seq) * time.Minute)
	e, _, err := s.Admit(cache.DiskEntry{
		Doc:       cache.Document{URL: url, Size: size},
		EnteredAt: now.Add(-time.Hour),
		LastHit:   now,
		Hits:      int64(seq + 1),
	}, bytes.NewReader(body(url, size)), now)
	if err != nil {
		t.Fatalf("admit %s: %v", url, err)
	}
	return e
}

// where returns the segment file and offset of url's extent.
func where(t *testing.T, s *Store, url string) (string, int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.entries[url]
	if !ok {
		t.Fatalf("%s not resident", url)
	}
	return segPath(s.dir, d.at.seg), d.at.off
}

// liveBytes sums the bytes the store counts live and dead over its segments.
func liveBytes(s *Store) (live, dead int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		live += seg.live
	}
	return live, s.dead
}

// readAll drains url through the verifying reader.
func readAll(t *testing.T, s *Store, url string) ([]byte, cache.DiskEntry, error) {
	t.Helper()
	e, rc, ok := s.Open(url)
	if !ok {
		return nil, e, fmt.Errorf("not resident")
	}
	b, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return b, e, err
}

func TestAdmitOpenRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), 1<<20)
	defer s.Close()
	for i := 0; i < 8; i++ {
		url := fmt.Sprintf("http://rt/%d", i)
		size := int64(100 + i*37)
		want := admit(t, s, url, size, i)
		got, e, err := readAll(t, s, url)
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if !bytes.Equal(got, body(url, size)) {
			t.Fatalf("%s: body bytes differ", url)
		}
		if e != want {
			t.Fatalf("%s: entry %+v, want %+v", url, e, want)
		}
		wantSum := sha256.Sum256(body(url, size))
		if e.Sum != wantSum {
			t.Fatalf("%s: sum mismatch", url)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("len = %d", s.Len())
	}
}

// TestDedupeRefcount: identical bodies share one extent; it stays live
// until the last referencing URL goes.
func TestDedupeRefcount(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	defer s.Close()
	mk := func(url string, seq int) cache.DiskEntry {
		now := t0().Add(time.Duration(seq) * time.Minute)
		e, _, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: url, Size: 512}, LastHit: now},
			bytes.NewReader(make([]byte, 512)), now)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a := mk("http://dup/a", 0)
	b := mk("http://dup/b", 1)
	if a.Sum != b.Sum {
		t.Fatalf("equal bodies, different sums")
	}
	pa, oa := where(t, s, "http://dup/a")
	if pb, ob := where(t, s, "http://dup/b"); pa != pb || oa != ob {
		t.Fatalf("equal bodies in two extents: %s@%d and %s@%d", pa, oa, pb, ob)
	}
	if live, dead := liveBytes(s); live != 512 || dead != 512 {
		t.Fatalf("live %d, dead %d: want the first copy live and the second dead", live, dead)
	}
	if s.Used() != 1024 {
		t.Fatalf("logical used = %d, want 1024", s.Used())
	}
	s.Remove("http://dup/a")
	if live, _ := liveBytes(s); live != 512 {
		t.Fatalf("shared extent dead while referenced: %d live bytes", live)
	}
	if _, _, err := readAll(t, s, "http://dup/b"); err != nil {
		t.Fatalf("surviving reference unreadable: %v", err)
	}
	s.Remove("http://dup/b")
	if live, dead := liveBytes(s); live != 0 || dead != 1024 {
		t.Fatalf("extent survived last dereference: live %d, dead %d", live, dead)
	}
}

// TestLRUEvictionOrder: filling past capacity evicts least-recently-hit
// first and folds the ages into the tracker.
func TestLRUEvictionOrder(t *testing.T) {
	s := openStore(t, t.TempDir(), 1000)
	defer s.Close()
	if got := s.ExpirationAge(t0()); got != cache.NoContention {
		t.Fatalf("fresh tier age = %v, want NoContention", got)
	}
	for i := 0; i < 4; i++ { // 4 x 250 fills exactly
		admit(t, s, fmt.Sprintf("http://lru/%d", i), 250, i)
	}
	now := t0().Add(time.Hour)
	_, evicted, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: "http://lru/new", Size: 400}, LastHit: now},
		bytes.NewReader(make([]byte, 400)), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 {
		t.Fatalf("evicted %d, want 2", len(evicted))
	}
	if evicted[0].Entry.Doc.URL != "http://lru/0" || evicted[1].Entry.Doc.URL != "http://lru/1" {
		t.Fatalf("eviction order %q, %q", evicted[0].Entry.Doc.URL, evicted[1].Entry.Doc.URL)
	}
	if wantAge := now.Sub(t0()); evicted[0].Age != wantAge {
		t.Fatalf("age = %v, want %v", evicted[0].Age, wantAge)
	}
	if got := s.ExpirationAge(now); got == cache.NoContention || got <= 0 {
		t.Fatalf("post-eviction age = %v", got)
	}
}

// TestWarmRestart: a clean close and reopen recovers every entry and the
// LRU order without re-reading bodies.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	want := make(map[string]cache.DiskEntry)
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("http://warm/%d", i)
		want[url] = admit(t, s, url, int64(64+i), i)
	}
	s.Remove("http://warm/3")
	delete(want, "http://warm/3")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 1<<20)
	defer s2.Close()
	rep := s2.Report()
	if rep.Entries != len(want) || rep.LostBlobs != 0 || rep.TruncatedBytes != 0 {
		t.Fatalf("report = %+v", rep)
	}
	for url, e := range want {
		got, ok := s2.Peek(url)
		if !ok || got != e {
			t.Fatalf("%s: %+v, want %+v", url, got, e)
		}
	}
	if v := s2.VerifyAll(); v.Failed != 0 || v.Verified != len(want) {
		t.Fatalf("verify = %+v", v)
	}
	// Oldest LastHit must still be the first victim.
	now := t0().Add(24 * time.Hour)
	_, evicted, err := s2.Admit(cache.DiskEntry{Doc: cache.Document{URL: "http://warm/huge", Size: 1 << 20}, LastHit: now},
		bytes.NewReader(make([]byte, 1<<20)), now)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) == 0 || evicted[0].Entry.Doc.URL != "http://warm/0" {
		t.Fatalf("post-restart victim = %+v", evicted)
	}
}

// TestChecksumFailure: a byte flipped inside a segment makes the read of
// that extent fail, drops the entry and counts the failure.
func TestChecksumFailure(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	defer s.Close()
	admit(t, s, "http://bad/x", 512, 0)
	path, off := where(t, s, "http://bad/x")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off+100] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = readAll(t, s, "http://bad/x")
	if err != ErrChecksum {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	if s.Contains("http://bad/x") {
		t.Fatalf("corrupt entry still resident")
	}
	if s.ChecksumFailures() != 1 {
		t.Fatalf("failures = %d", s.ChecksumFailures())
	}
	// An extent its segment ends inside also fails.
	admit(t, s, "http://bad/y", 512, 1)
	path, off = where(t, s, "http://bad/y")
	if err := os.Truncate(path, off+100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readAll(t, s, "http://bad/y"); err != ErrChecksum {
		t.Fatalf("truncated read err = %v", err)
	}
	if v := s.VerifyAll(); v.Failed != 0 {
		t.Fatalf("dropped entries still failing: %+v", v)
	}
}

// TestCompaction: churn enough put/del garbage to trigger a runtime
// compaction, then prove the rewritten log replays to the same state.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	for round := 0; round < 700; round++ {
		url := fmt.Sprintf("http://churn/%d", round%7)
		admit(t, s, url, 128, round)
		if round%3 == 0 {
			s.Remove(url)
		}
	}
	live := s.Len()
	urls := s.URLs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted log must be near-minimal: one frame per live entry
	// plus whatever churn followed the last compaction.
	raw, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, damage := ReplayIndex(raw)
	if damage != nil {
		t.Fatal(damage)
	}
	if len(recs) >= 700 {
		t.Fatalf("log never compacted: %d records", len(recs))
	}
	s2 := openStore(t, dir, 1<<20)
	defer s2.Close()
	if s2.Len() != live {
		t.Fatalf("recovered %d entries, want %d", s2.Len(), live)
	}
	for _, u := range urls {
		if !s2.Contains(u) {
			t.Fatalf("lost %s across compaction", u)
		}
	}
}

// TestKillAtEveryOffsetIndex is the blob-index twin of the persist
// suite's TestKillMidWrite: the index log is truncated at every frame
// boundary and at random intra-frame offsets — the torn write of a node
// killed mid-append — and recovery must come up clean with a verifiable
// subset of the full residency, then keep accepting writes.
func TestKillAtEveryOffsetIndex(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	var expect []IndexRecord
	for round := 0; round < 30; round++ {
		url := fmt.Sprintf("http://kill/%d", round%9)
		admit(t, s, url, int64(64+round%5*32), round)
		if round%4 == 3 {
			s.Remove(url)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	expect, _, damage := ReplayIndex(full)
	if damage != nil {
		t.Fatalf("clean index damaged: %v", damage)
	}

	// Cut points: every frame boundary, plus random mid-frame offsets.
	cuts := map[int]bool{0: true, len(full): true}
	off := 0
	for _, r := range expect {
		off += len(appendIndexRecord(nil, r))
		cuts[off] = true
		if off > 0 {
			cuts[off-1] = true
		}
	}
	rng := dist.NewRNG(7)
	for i := 0; i < 40; i++ {
		cuts[rng.Intn(len(full)+1)] = true
	}

	for cut := range cuts {
		sub := crash(t, dir, cut)
		// The recovered residency must be exactly the fold of the
		// committed prefix, minus entries whose segment was already
		// unlinked before the crash (a replaced body's old extent, once
		// everything beside it died): the runtime unlink legitimately
		// loses them, and recovery must count — not resurrect — them.
		wantFold := make(map[string]cache.DiskEntry)
		at := make(map[string]extent)
		woff := 0
		for _, r := range expect {
			frame := appendIndexRecord(nil, r)
			if woff+len(frame) > cut {
				break
			}
			woff += len(frame)
			if r.Del {
				delete(wantFold, r.Entry.Doc.URL)
			} else {
				wantFold[r.Entry.Doc.URL], at[r.Entry.Doc.URL] = r.Entry, r.at
			}
		}
		for url, e := range wantFold {
			fi, err := os.Stat(segPath(sub, at[url].seg))
			if err != nil || fi.Size() < at[url].off+e.Doc.Size {
				delete(wantFold, url)
			}
		}
		s2 := openStore(t, sub, 1<<20)
		if s2.Len() != len(wantFold) {
			t.Fatalf("cut %d: recovered %d entries, want %d", cut, s2.Len(), len(wantFold))
		}
		for url, e := range wantFold {
			got, ok := s2.Peek(url)
			if !ok || got != e {
				t.Fatalf("cut %d: %s = %+v, want %+v", cut, url, got, e)
			}
		}
		if v := s2.VerifyAll(); v.Failed != 0 {
			t.Fatalf("cut %d: checksum failures after recovery: %+v", cut, v)
		}
		// The reopened index must accept writes and survive another
		// restart.
		now := t0().Add(48 * time.Hour)
		if _, _, err := s2.Admit(cache.DiskEntry{Doc: cache.Document{URL: "http://kill/post", Size: 64}, LastHit: now},
			bytes.NewReader(body("http://kill/post", 64)), now); err != nil {
			t.Fatalf("cut %d: post-crash admit: %v", cut, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3 := openStore(t, sub, 1<<20)
		if !s3.Contains("http://kill/post") {
			t.Fatalf("cut %d: post-crash admit lost", cut)
		}
		s3.Close()
	}
}

// linkSegments hardlinks src's seg/ files into dst (cheap per-trial
// copies for the chaos loops: a recovered segment is never written to).
func linkSegments(t *testing.T, src, dst string) {
	t.Helper()
	files, err := os.ReadDir(filepath.Join(src, "seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dst, "seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		err := os.Link(filepath.Join(src, "seg", f.Name()), filepath.Join(dst, "seg", f.Name()))
		if err != nil && !os.IsExist(err) {
			t.Fatal(err)
		}
	}
}

// TestOpenValidation covers the config error paths.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Capacity: 1}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Capacity: 1, ExpirationWindow: 4, ExpirationHorizon: time.Hour}); err == nil {
		t.Fatal("window+horizon accepted")
	}
}

// TestClosedStoreIsInert: operations after Close are no-ops, as the tier
// contract requires (a promotion finishing during shutdown).
func TestClosedStoreIsInert(t *testing.T) {
	s := openStore(t, t.TempDir(), 1<<20)
	admit(t, s, "http://closed/x", 64, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Remove("http://closed/x"); ok {
		t.Fatal("Remove after Close succeeded")
	}
	if _, _, ok := s.Open("http://closed/x"); ok {
		t.Fatal("Open after Close succeeded")
	}
	if _, _, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: "http://closed/y", Size: 1}},
		bytes.NewReader([]byte{0}), t0()); err != ErrClosed {
		t.Fatalf("Admit after Close: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestOpenRacesRemove: readers opening a URL while it is removed and
// re-admitted in a loop lose the race now and then — the blob is unlinked
// between their index lookup and their open. That is a document leaving
// the tier, not corruption: the loser sees "not resident", every winner
// reads the right bytes, and no checksum failure is counted.
func TestOpenRacesRemove(t *testing.T) {
	s := openStore(t, t.TempDir(), 1<<20)
	defer s.Close()
	const url, size = "http://race/x", 2048
	want := body(url, size)
	admit(t, s, url, size, 0)

	const readers = 8
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				_, rc, ok := s.Open(url)
				if !ok {
					continue
				}
				got, err := io.ReadAll(rc)
				rc.Close()
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("resident read: %d bytes, err %v", len(got), err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if _, ok := s.Remove(url); !ok {
			t.Fatalf("round %d: Remove found nothing", i)
		}
		admit(t, s, url, size, i)
	}
	close(stop)
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := s.ChecksumFailures(); n != 0 {
		t.Fatalf("%d checksum failures counted for a blob that was merely removed", n)
	}
	if !s.Contains(url) {
		t.Fatal("entry dropped as corrupt")
	}
}
