package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/frame"
)

// TestJournalTierRoundTrip checks what each tier record kind carries
// through the journal: a demote keeps its URL and nothing else (the blob
// index has the rest), promote-disk and disk-evict keep every field and
// the Tier dimension, and a disk-tier remove has no frame — Append skips
// it without a word. The parent's frames for the two retired forms stop
// replay as damage.
func TestJournalTierRoundTrip(t *testing.T) {
	at := t0()
	demote := cache.Event{Kind: cache.EventDemote,
		Doc:       cache.Document{URL: "http://t/1", Size: 4096},
		At:        at.Add(10 * time.Second),
		Age:       25 * time.Second,
		EnteredAt: at,
		LastHit:   at.Add(3 * time.Second),
		Hits:      7}
	diskRemove := cache.Event{Kind: cache.EventRemove, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://t/3"}}
	evs := []cache.Event{
		demote,
		{Kind: cache.EventPromoteFromDisk,
			Doc:       cache.Document{URL: "http://t/1", Size: 4096},
			At:        at.Add(20 * time.Second),
			EnteredAt: at,
			Hits:      8},
		{Kind: cache.EventEvict, Tier: cache.TierDisk,
			Doc: cache.Document{URL: "http://t/2", Size: 128},
			At:  at.Add(30 * time.Second),
			Age: 90 * time.Second},
	}
	data := encodeAll(t, evs)
	got, good, damage := ReplayJournal(data)
	if damage != nil || good != len(data) || len(got) != len(evs) {
		t.Fatalf("replayed %d events over %d of %d bytes: %v", len(got), good, len(data), damage)
	}

	if want := (cache.Event{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://t/1"}}); got[0] != want {
		t.Fatalf("demote decoded as %+v, want the URL alone", got[0])
	}
	if f, _ := MarshalEvent(demote); len(f) != frame.Overhead+2+len(demote.Doc.URL) {
		t.Fatalf("demote frame is %d bytes, want framing + URL", len(f))
	}

	p := got[1]
	if p.Kind != cache.EventPromoteFromDisk || p.Doc.Size != 4096 || p.Hits != 8 || !p.EnteredAt.Equal(at) {
		t.Fatalf("promote-disk = %+v", p)
	}
	if !p.LastHit.Equal(p.At) {
		t.Fatalf("promote-disk LastHit %v != At %v", p.LastHit, p.At)
	}
	de := got[2]
	if de.Kind != cache.EventEvict || de.Tier != cache.TierDisk || de.Age != 90*time.Second || !de.At.Equal(at.Add(30*time.Second)) {
		t.Fatalf("disk evict = %+v", de)
	}

	// A disk-tier remove: no encoding, and Append neither writes nor logs.
	if _, err := MarshalEvent(diskRemove); err == nil {
		t.Fatal("disk-tier remove has a journal encoding")
	}
	var logged bytes.Buffer
	dir := t.TempDir()
	pr, err := Open(Config{Dir: dir, Logger: log.New(&logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	pr.Append(evs[2])
	pr.Append(diskRemove)
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "journal.0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := MarshalEvent(evs[2]); !bytes.Equal(raw, want) || logged.Len() != 0 {
		t.Fatalf("journal holds %d bytes, want the disk-evict frame's %d alone; logged %q", len(raw), len(want), logged.String())
	}

	// The retired forms, CRCs intact, behind a good frame: replay keeps the
	// good frame and stops.
	for name, old := range map[string][]byte{
		"demote with metadata and checksum": parentDemoteFrame(demote),
		"disk-remove":                       parentDiskRemoveFrame("http://t/3"),
	} {
		got, good, damage := ReplayJournal(append(append([]byte(nil), raw...), old...))
		if len(got) != 1 || good != len(raw) || !errors.Is(damage, ErrCorrupt) {
			t.Fatalf("parent %s frame: %d events over %d bytes, damage %v; want 1 over %d and ErrCorrupt", name, len(got), good, damage, len(raw))
		}
	}
}

// TestMarshalEventRejectsDiskTierNonExit: only an eviction has a disk-tier
// encoding; anything else on the disk tier is refused.
func TestMarshalEventRejectsDiskTierNonExit(t *testing.T) {
	for _, kind := range []cache.EventKind{cache.EventInsert, cache.EventHit, cache.EventPromote, cache.EventRemove, cache.EventDemote, cache.EventPromoteFromDisk} {
		ev := cache.Event{Kind: kind, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://x/", Size: 1}}
		if _, err := MarshalEvent(ev); err == nil {
			t.Fatalf("disk-tier %v accepted", kind)
		}
	}
}

// TestSnapshotRejectsV1 hand-builds snapshots in the two retired formats
// — EACSNAP1 (today's body under the old magic) and EACSNAP2 (the same
// with a disk section, here empty, before the CRC) — each with a valid
// CRC, and checks they take the rejected-snapshot route: a bad-magic error
// from the decoder, and through Open a discarded snapshot with the journal
// beside it still replayed.
func TestSnapshotRejectsV1(t *testing.T) {
	at := t0()
	st := State{
		Gen:     9,
		Entries: []EntryState{{URL: "http://v1/1", Size: 256, EnteredAt: at, LastHit: at, Hits: 2}},
		Tracker: cache.TrackerState{Window: 4, Samples: []cache.TrackerSample{{At: at, Age: time.Minute}}},
	}
	v3 := EncodeSnapshot(st)
	body := v3[len(snapMagic) : len(v3)-4 : len(v3)-4]
	for magic, body := range map[string][]byte{
		"EACSNAP1": body,
		"EACSNAP2": binary.LittleEndian.AppendUint32(body, 0),
	} {
		old := append([]byte(magic), body...)
		old = binary.LittleEndian.AppendUint32(old, frame.Checksum(body))

		if _, err := DecodeSnapshot(old); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad snapshot magic") {
			t.Fatalf("%s snapshot: err = %v, want a bad-magic ErrCorrupt", magic, err)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), old, 0o644); err != nil {
			t.Fatal(err)
		}
		journal := encodeAll(t, []cache.Event{
			{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://journal/1", Size: 100}, At: at},
		})
		if err := os.WriteFile(filepath.Join(dir, "journal.0.wal"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		p := openPersister(t, dir)
		rep := p.Report()
		if rep.SnapshotLoaded || !strings.Contains(rep.Discarded, "snapshot rejected") || rep.JournalRecords != 1 {
			t.Fatalf("%s: report = %+v, want the snapshot discarded and one journal record replayed", magic, rep)
		}
		if got := p.RecoveredState().Entries; len(got) != 1 || got[0].URL != "http://journal/1" {
			t.Fatalf("%s: recovered entries = %+v, want only the journal's document", magic, got)
		}
		p.Close()
	}
}

// TestReplayTierMoves folds a journal of tier transitions through a real
// Persister Open and checks the recovered state is the memory tier's: a
// demoted document is out of it whatever became of the blob, a promoted
// one is back with the metadata the promote-disk frame carries, and only
// true exits (disk evictions, demotion drops) feed the tracker.
func TestReplayTierMoves(t *testing.T) {
	at := t0()
	demote := func(url string) cache.Event {
		return cache.Event{Kind: cache.EventDemote, Doc: cache.Document{URL: url}}
	}
	evs := []cache.Event{
		// a: insert → demote → promote back → stays in memory.
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/a", Size: 100}, At: at},
		demote("http://r/a"),
		{Kind: cache.EventPromoteFromDisk, Doc: cache.Document{URL: "http://r/a", Size: 100},
			At: at.Add(20 * time.Second), EnteredAt: at, Hits: 2},
		// b: insert → demote → stays on disk.
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/b", Size: 200}, At: at.Add(time.Second)},
		demote("http://r/b"),
		// c: insert → demote → evicted from disk (true exit, tracked).
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/c", Size: 300}, At: at.Add(2 * time.Second)},
		demote("http://r/c"),
		{Kind: cache.EventEvict, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://r/c"},
			At: at.Add(50 * time.Second), Age: 48 * time.Second},
		// d: insert → dropped at the tier boundary (true exit, tracked).
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/d", Size: 400}, At: at.Add(3 * time.Second)},
		{Kind: cache.EventEvict, Doc: cache.Document{URL: "http://r/d"}, At: at.Add(60 * time.Second), Age: 57 * time.Second},
		// e: demoted, then a fresh insert supersedes the disk copy (the
		// index del in between is not the journal's).
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/e", Size: 500}, At: at.Add(4 * time.Second)},
		demote("http://r/e"),
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/e", Size: 512}, At: at.Add(80 * time.Second)},
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.0.wal"), encodeAll(t, evs), 0o644); err != nil {
		t.Fatal(err)
	}
	p := openPersister(t, dir)
	defer p.Close()

	st := p.RecoveredState()
	mem := map[string]EntryState{}
	for _, e := range st.Entries {
		mem[e.URL] = e
	}
	if len(mem) != 2 {
		t.Fatalf("recovered %d memory entries, want a and e: %+v", len(mem), st.Entries)
	}
	a, ok := mem["http://r/a"]
	if !ok || a.Hits != 2 || !a.LastHit.Equal(at.Add(20*time.Second)) || !a.EnteredAt.Equal(at) {
		t.Fatalf("a = %+v (present %v)", a, ok)
	}
	e, ok := mem["http://r/e"]
	if !ok || e.Size != 512 || !e.EnteredAt.Equal(at.Add(80*time.Second)) {
		t.Fatalf("e = %+v (present %v)", e, ok)
	}

	// c's disk eviction and d's drop were the tracked exits.
	if st.Tracker.TotalCount != 2 {
		t.Fatalf("tracker count = %d, want 2", st.Tracker.TotalCount)
	}
	if s := st.Tracker.Samples; len(s) != 2 || s[0].Age != 48*time.Second || s[1].Age != 57*time.Second {
		t.Fatalf("tracker samples = %+v", s)
	}
	if rep := p.Report(); rep.Entries != 2 || rep.Bytes != 612 || rep.JournalRecords != len(evs) {
		t.Fatalf("report = %+v", rep)
	}
}

// TestCheckpointPersistsDiskSection drives a real tiered capture through
// Checkpoint, WriteSnapshot and a reopen: the snapshot carries the memory
// tier and the advertised exit tracker under the EACSNAP3 magic and not a
// byte about the disk tier, whose residents the blob index alone records.
func TestCheckpointPersistsDiskSection(t *testing.T) {
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 2048, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blob.Open(blob.Config{Dir: t.TempDir(), Capacity: 2048, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk, Demote: cache.DemoteAlways})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p := openPersister(t, dir)
	ts.SetEventSink(p.Append)
	now := t0()
	for i := 0; i < 6; i++ { // 2 stay in memory, 2 on disk, 2 exit through it
		now = now.Add(time.Minute)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://cp/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	var st State
	if err := ts.Checkpoint(func(v cache.StoreView) error {
		st = CaptureState(v)
		return p.Rotate()
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("EACSNAP3")) {
		t.Fatalf("snapshot magic = %q", raw[:8])
	}
	for _, url := range disk.URLs() {
		if bytes.Contains(raw, []byte(url)) {
			t.Fatalf("snapshot names disk resident %s", url)
		}
	}

	p2 := openPersister(t, dir)
	defer p2.Close()
	got := p2.RecoveredState()
	if rep := p2.Report(); !rep.SnapshotLoaded || rep.JournalRecords != 0 {
		t.Fatalf("report = %+v, want the snapshot alone", rep)
	}
	if len(got.Entries) != 2 || got.Entries[0].URL != "http://cp/4" || got.Entries[1].URL != "http://cp/5" || disk.Len() != 2 {
		t.Fatalf("recovered memory = %+v beside %d on disk, want cp/4 and cp/5 beside 2", got.Entries, disk.Len())
	}
	if want := ts.TrackerState(); got.Tracker.TotalCount != 2 || got.Tracker.TotalCount != want.TotalCount ||
		len(got.Tracker.Samples) != len(want.Samples) {
		t.Fatalf("recovered tracker = %+v, the live exit tracker %+v", got.Tracker, want)
	}
}
