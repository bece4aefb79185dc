package cache_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/persist"
)

// twoLogs is a tier controller over a real memory tier, a real blob tier
// and a real journal: the two logs a node writes, each in its own
// directory, with the journal fed through the controller's event sink.
type twoLogs struct {
	dataDir, diskDir string
	ts               *cache.TieredStore
	mem              *cache.ShardedStore
	disk             *blob.Store
	journal          *persist.Persister
}

// openTwoLogs opens both directories the way a starting node does: the
// blob tier recovers itself from its index, then the journal restores the
// memory tier (and the exit tracker) through the controller, whose
// RestoreEntry is where a URL found in both keeps its memory copy.
func openTwoLogs(t *testing.T, dataDir, diskDir string, diskCap int64) *twoLogs {
	t.Helper()
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 2048, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blob.Open(blob.Config{Dir: diskDir, Capacity: diskCap, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk, Demote: cache.DemoteAlways, Body: bodyFn})
	if err != nil {
		t.Fatal(err)
	}
	journal, err := persist.Open(persist.Config{Dir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	persist.Restore(ts, journal.RecoveredState())
	return &twoLogs{dataDir: dataDir, diskDir: diskDir, ts: ts, mem: mem, disk: disk, journal: journal}
}

// copyTree copies the files under src to dst as they are on disk now.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTieredTwoLogCrashMatrix kills a tier controller between every pair
// of writes its two logs make — the blob index performs each disk-tier
// mutation, the journal records the memory tier and the exits — and
// damages each log on its own, then recovers the way a node does. After
// every recovery: each URL in at most one tier, each tier within its
// budget, every disk body intact, nothing resident that neither log
// committed, the restored exit tracker equal to the replayed one, and the
// documents of the interrupted transition where the one rule (the index
// owns disk residency, the memory copy wins) puts them.
func TestTieredTwoLogCrashMatrix(t *testing.T) {
	const (
		a, b, c, d, e = "http://x/a", "http://x/b", "http://x/c", "http://x/d", "http://x/e"
		inMem, onDisk = "memory", "disk"
		roomy, tight  = 1 << 20, 2048 // disk budgets: never evicts / holds two documents
	)
	put := func(urls ...string) func(*testing.T, *twoLogs, func() time.Time) {
		return func(t *testing.T, l *twoLogs, tick func() time.Time) {
			for _, url := range urls {
				if _, err := l.ts.Put(cache.Document{URL: url, Size: 1024}, tick()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Memory holds two documents, so the third Put demotes the first.
	promoteA := func(t *testing.T, l *twoLogs, tick func() time.Time) {
		put(a, b, c)(t, l, tick)
		if _, ok := l.ts.Get(a, tick()); !ok || !l.mem.Contains(a) || l.disk.Contains(a) {
			t.Fatal("setup: a was not promoted off the disk tier")
		}
	}
	replaceA := func(t *testing.T, l *twoLogs, tick func() time.Time) {
		put(a, b, c)(t, l, tick)
		if !l.disk.Contains(a) {
			t.Fatal("setup: a is not disk-resident")
		}
		if _, err := l.ts.Put(cache.Document{URL: a, Size: 512}, tick()); err != nil {
			t.Fatal(err)
		}
	}
	is := func(kind cache.EventKind, tier cache.Tier, url string) func(cache.Event) bool {
		return func(ev cache.Event) bool { return ev.Kind == kind && ev.Tier == tier && ev.Doc.URL == url }
	}

	cases := []struct {
		name    string
		diskCap int64
		script  func(*testing.T, *twoLogs, func() time.Time)
		// at picks one event of the script. The crash image is taken as the
		// event reaches the sink, before it is journaled — after, with
		// journaled set — or, with tear set, the script runs to its end and
		// the journal is then cut back to just before the event's frame.
		// With at nil the image is the script's end state.
		at              func(cache.Event) bool
		journaled, tear bool
		wipe            string // "data" or "disk": the directory lost whole
		want            map[string]string
	}{
		{name: "no crash", diskCap: tight, script: put(a, b, c, d, e),
			want: map[string]string{a: "", b: onDisk, c: onDisk, d: inMem, e: inMem}},
		{name: "demotion: index put, no journal demote", diskCap: roomy, script: put(a, b, c),
			at:   is(cache.EventDemote, cache.TierMemory, a),
			want: map[string]string{a: inMem, b: inMem, c: ""}},
		{name: "promotion: journal promote-disk, no index del", diskCap: roomy, script: promoteA,
			at: is(cache.EventPromoteFromDisk, cache.TierMemory, a), journaled: true,
			want: map[string]string{a: inMem, b: onDisk, c: inMem}},
		{name: "disk eviction: index del, no journal disk-evict", diskCap: tight, script: put(a, b, c, d, e),
			at:   is(cache.EventEvict, cache.TierDisk, a),
			want: map[string]string{a: "", b: onDisk, c: onDisk, d: inMem, e: ""}},
		{name: "stale copy replaced by Put: index del, no journal insert", diskCap: roomy, script: replaceA,
			at:   is(cache.EventRemove, cache.TierDisk, a),
			want: map[string]string{a: "", b: inMem, c: inMem}},
		{name: "journal torn back past a demotion", diskCap: roomy, script: put(a, b, c),
			at: is(cache.EventDemote, cache.TierMemory, a), tear: true,
			want: map[string]string{a: inMem, b: inMem, c: ""}},
		{name: "journal torn back past a promotion", diskCap: roomy, script: promoteA,
			at: is(cache.EventPromoteFromDisk, cache.TierMemory, a), tear: true,
			want: map[string]string{a: "", b: onDisk, c: inMem}},
		{name: "data dir wiped, disk dir kept", diskCap: roomy, script: put(a, b, c, d), wipe: "data",
			want: map[string]string{a: onDisk, b: onDisk, c: "", d: ""}},
		{name: "disk dir wiped, data dir kept", diskCap: roomy, script: put(a, b, c, d), wipe: "disk",
			want: map[string]string{a: "", b: "", c: inMem, d: inMem}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := openTwoLogs(t, t.TempDir(), t.TempDir(), tc.diskCap)
			imgData, imgDisk := t.TempDir(), t.TempDir()
			journalPath := filepath.Join(live.dataDir, "journal.0.wal")
			imaged, tearAt := false, int64(-1)
			image := func() {
				copyTree(t, live.dataDir, imgData)
				copyTree(t, live.diskDir, imgDisk)
				imaged = true
			}
			live.ts.SetEventSink(func(ev cache.Event) {
				hit := tc.at != nil && !imaged && tearAt < 0 && tc.at(ev)
				switch {
				case hit && tc.tear:
					fi, err := os.Stat(journalPath) // Append returns with the frame written
					if err != nil {
						t.Fatal(err)
					}
					tearAt = fi.Size()
				case hit && !tc.journaled:
					image()
				}
				live.journal.Append(ev)
				if hit && tc.journaled {
					image()
				}
			})
			now := t0()
			tc.script(t, live, func() time.Time { now = now.Add(time.Minute); return now })
			if tc.at != nil && !imaged && tearAt < 0 {
				t.Fatal("the script never emitted the event to crash at")
			}
			if !imaged {
				image()
			}
			if tc.tear {
				if err := os.Truncate(filepath.Join(imgData, "journal.0.wal"), tearAt); err != nil {
					t.Fatal(err)
				}
			}
			switch tc.wipe {
			case "data":
				imgData = t.TempDir()
			case "disk":
				imgDisk = t.TempDir()
			}

			// What the two logs had committed when the node died.
			committed := map[string]bool{}
			rawJournal, _ := os.ReadFile(filepath.Join(imgData, "journal.0.wal"))
			evs, _, _ := persist.ReplayJournal(rawJournal)
			for _, ev := range evs {
				committed[ev.Doc.URL] = true
			}
			rawIndex, _ := os.ReadFile(filepath.Join(imgDisk, "index.log"))
			recs, _, _ := blob.ReplayIndex(rawIndex)
			for _, r := range recs {
				committed[r.Entry.Doc.URL] = true
			}

			rec := openTwoLogs(t, imgData, imgDisk, tc.diskCap)
			for url, where := range tc.want {
				got := ""
				switch m, d := rec.mem.Contains(url), rec.disk.Contains(url); {
				case m && d:
					t.Fatalf("%s is resident in both tiers", url)
				case m:
					got = inMem
				case d:
					got = onDisk
				}
				if got != where {
					t.Errorf("%s recovered in %q, want %q", url, got, where)
				}
			}
			resident := 0
			for _, url := range rec.ts.URLs() {
				resident++
				if rec.mem.Contains(url) && rec.disk.Contains(url) {
					t.Errorf("%s is resident in both tiers", url)
				}
				if !committed[url] {
					t.Errorf("%s is resident and in neither log", url)
				}
				if _, ok := tc.want[url]; !ok {
					t.Errorf("%s is resident and the case does not account for it", url)
				}
			}
			if resident != rec.ts.Len() {
				t.Errorf("%d URLs for %d documents", resident, rec.ts.Len())
			}
			if rec.mem.Used() > rec.mem.Capacity() || rec.disk.Used() > rec.disk.Capacity() {
				t.Errorf("over budget: memory %d/%d, disk %d/%d", rec.mem.Used(), rec.mem.Capacity(), rec.disk.Used(), rec.disk.Capacity())
			}
			if v := rec.disk.VerifyAll(); v.Failed != 0 || v.Verified != rec.disk.Len() {
				t.Errorf("disk bodies: %+v over %d entries", v, rec.disk.Len())
			}
			for _, url := range rec.disk.URLs() {
				de, rc, ok := rec.disk.Open(url)
				if !ok {
					t.Fatalf("%s: disk-resident and unreadable", url)
				}
				var body bytes.Buffer
				_, err := body.ReadFrom(rc)
				if cerr := rc.Close(); err != nil || cerr != nil || !bytes.Equal(body.Bytes(), docBody(url, de.Doc.Size)) {
					t.Errorf("%s: disk body differs from the demoted one (%v, %v)", url, err, cerr)
				}
			}
			// The restored exit tracker is the replayed one, re-windowed.
			replayed := rec.journal.RecoveredState().Tracker
			got := rec.ts.TrackerState()
			replayed.Window, replayed.Horizon = got.Window, got.Horizon
			if want := cache.NewTrackerFromState(replayed).State(); !reflect.DeepEqual(got, want) {
				t.Errorf("restored exit tracker %+v, replayed %+v", got, want)
			}
			if tc.at == nil && tc.wipe == "" {
				if g, w := rec.ts.ExpirationAge(now), live.ts.ExpirationAge(now); g != w || w == cache.NoContention {
					t.Errorf("recovered expiration age %v, the live store's %v", g, w)
				}
			}
		})
	}
}
