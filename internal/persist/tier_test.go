package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eacache/internal/cache"
)

// TestJournalTierRoundTrip checks every field of the tier record kinds
// survives the journal, including the demote checksum and the Tier
// dimension of disk-side exits.
func TestJournalTierRoundTrip(t *testing.T) {
	at := t0()
	var sum [32]byte
	for i := range sum {
		sum[i] = byte(0xA0 + i)
	}
	evs := []cache.Event{
		{Kind: cache.EventDemote,
			Doc:       cache.Document{URL: "http://t/1", Size: 4096, Expires: at.Add(2 * time.Hour)},
			At:        at.Add(10 * time.Second),
			Age:       25 * time.Second,
			EnteredAt: at,
			LastHit:   at.Add(3 * time.Second),
			Hits:      7,
			Sum:       sum},
		{Kind: cache.EventPromoteFromDisk,
			Doc:       cache.Document{URL: "http://t/1", Size: 4096, Expires: at.Add(2 * time.Hour)},
			At:        at.Add(20 * time.Second),
			EnteredAt: at,
			Hits:      8},
		{Kind: cache.EventEvict, Tier: cache.TierDisk,
			Doc: cache.Document{URL: "http://t/2", Size: 128},
			At:  at.Add(30 * time.Second),
			Age: 90 * time.Second},
		{Kind: cache.EventRemove, Tier: cache.TierDisk,
			Doc: cache.Document{URL: "http://t/3"}},
	}
	got, good, damage := ReplayJournal(encodeAll(t, evs))
	if damage != nil {
		t.Fatalf("damage: %v", damage)
	}
	if good == 0 || len(got) != len(evs) {
		t.Fatalf("replayed %d events", len(got))
	}

	d := got[0]
	if d.Kind != cache.EventDemote || d.Tier != cache.TierMemory {
		t.Fatalf("demote decoded as %v/%v", d.Kind, d.Tier)
	}
	if d.Doc.URL != "http://t/1" || d.Doc.Size != 4096 || !d.Doc.Expires.Equal(at.Add(2*time.Hour)) {
		t.Fatalf("demote doc = %+v", d.Doc)
	}
	if !d.At.Equal(at.Add(10*time.Second)) || d.Age != 25*time.Second {
		t.Fatalf("demote at/age = %v/%v", d.At, d.Age)
	}
	if !d.EnteredAt.Equal(at) || !d.LastHit.Equal(at.Add(3*time.Second)) || d.Hits != 7 {
		t.Fatalf("demote metadata = %+v", d)
	}
	if d.Sum != sum {
		t.Fatalf("demote sum = %x, want %x", d.Sum, sum)
	}

	p := got[1]
	if p.Kind != cache.EventPromoteFromDisk || p.Doc.Size != 4096 || p.Hits != 8 || !p.EnteredAt.Equal(at) {
		t.Fatalf("promote-disk = %+v", p)
	}
	if !p.LastHit.Equal(p.At) {
		t.Fatalf("promote-disk LastHit %v != At %v", p.LastHit, p.At)
	}

	de := got[2]
	if de.Kind != cache.EventEvict || de.Tier != cache.TierDisk || de.Age != 90*time.Second {
		t.Fatalf("disk evict = %+v", de)
	}
	dr := got[3]
	if dr.Kind != cache.EventRemove || dr.Tier != cache.TierDisk || dr.Doc.URL != "http://t/3" {
		t.Fatalf("disk remove = %+v", dr)
	}
}

// TestMarshalEventRejectsDiskTierNonExit: only evict/remove have disk-tier
// encodings; anything else on the disk tier is a programming error.
func TestMarshalEventRejectsDiskTierNonExit(t *testing.T) {
	for _, kind := range []cache.EventKind{cache.EventInsert, cache.EventHit, cache.EventPromote, cache.EventDemote, cache.EventPromoteFromDisk} {
		ev := cache.Event{Kind: kind, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://x/", Size: 1}}
		if _, err := MarshalEvent(ev); err == nil {
			t.Fatalf("disk-tier %v accepted", kind)
		}
	}
}

// TestSnapshotV2DiskRoundTrip: the disk section survives encode/decode
// field-for-field.
func TestSnapshotV2DiskRoundTrip(t *testing.T) {
	at := t0()
	var s1, s2 [32]byte
	s1[0], s2[31] = 0x11, 0x99
	st := State{
		Gen: 3,
		Entries: []EntryState{
			{URL: "http://m/1", Size: 100, EnteredAt: at, LastHit: at, Hits: 1},
		},
		Tracker: cache.TrackerState{Window: 8},
		Disk: []cache.DiskEntry{
			{Doc: cache.Document{URL: "http://d/1", Size: 2048, Expires: at.Add(time.Hour)},
				EnteredAt: at, LastHit: at.Add(time.Minute), Hits: 5, Sum: s1},
			{Doc: cache.Document{URL: "http://d/2", Size: 64},
				EnteredAt: at.Add(time.Second), LastHit: at.Add(2 * time.Minute), Hits: 1, Sum: s2},
		},
	}
	got, err := DecodeSnapshot(EncodeSnapshot(st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Disk) != 2 {
		t.Fatalf("disk entries = %d", len(got.Disk))
	}
	for i := range st.Disk {
		w, g := st.Disk[i], got.Disk[i]
		if g.Doc != w.Doc && (g.Doc.URL != w.Doc.URL || g.Doc.Size != w.Doc.Size || !g.Doc.Expires.Equal(w.Doc.Expires)) {
			t.Fatalf("disk %d doc = %+v, want %+v", i, g.Doc, w.Doc)
		}
		if !g.EnteredAt.Equal(w.EnteredAt) || !g.LastHit.Equal(w.LastHit) || g.Hits != w.Hits || g.Sum != w.Sum {
			t.Fatalf("disk %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestSnapshotRejectsV1 hand-builds a snapshot in the retired EACSNAP1
// format (old magic, no disk section, valid CRC) and checks it takes the
// rejected-snapshot route: a bad-magic error from the decoder, and through
// Open a discarded snapshot with the journal beside it still replayed.
func TestSnapshotRejectsV1(t *testing.T) {
	at := t0()
	st := State{
		Gen:     9,
		Entries: []EntryState{{URL: "http://v1/1", Size: 256, EnteredAt: at, LastHit: at, Hits: 2}},
		Tracker: cache.TrackerState{Window: 4, Samples: []cache.TrackerSample{{At: at, Age: time.Minute}}},
	}
	v2 := EncodeSnapshot(st)
	// Strip the magic, drop the trailing empty disk section (u32 count = 0)
	// from the body, stamp the v1 magic, recompute the CRC.
	body := v2[len(snapMagic) : len(v2)-4]
	if binary.LittleEndian.Uint32(body[len(body)-4:]) != 0 {
		t.Fatal("expected empty disk section at body tail")
	}
	v1body := body[: len(body)-4 : len(body)-4]
	v1 := append([]byte("EACSNAP1"), v1body...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.Checksum(v1body, crcTable))

	if _, err := DecodeSnapshot(v1); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad snapshot magic") {
		t.Fatalf("v1 snapshot: err = %v, want a bad-magic ErrCorrupt", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	journal := encodeAll(t, []cache.Event{
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://journal/1", Size: 100}, At: at},
	})
	if err := os.WriteFile(filepath.Join(dir, "journal.0.wal"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	p := openPersister(t, dir)
	defer p.Close()
	rep := p.Report()
	if rep.SnapshotLoaded || !strings.Contains(rep.Discarded, "snapshot rejected") || rep.JournalRecords != 1 {
		t.Fatalf("report = %+v, want the snapshot discarded and one journal record replayed", rep)
	}
	if got := p.RecoveredState().Entries; len(got) != 1 || got[0].URL != "http://journal/1" {
		t.Fatalf("recovered entries = %+v, want only the journal's document", got)
	}
}

// TestSnapshotRejectsDualResidency: a URL present in both the memory and
// disk sections violates the exclusive-residency invariant and must be
// rejected as corrupt.
func TestSnapshotRejectsDualResidency(t *testing.T) {
	at := t0()
	st := State{
		Entries: []EntryState{{URL: "http://dup/", Size: 100, EnteredAt: at, LastHit: at, Hits: 1}},
		Disk: []cache.DiskEntry{
			{Doc: cache.Document{URL: "http://dup/", Size: 100}, EnteredAt: at, LastHit: at, Hits: 1},
		},
	}
	if _, err := DecodeSnapshot(EncodeSnapshot(st)); err == nil {
		t.Fatal("dual-resident snapshot accepted")
	}
}

// TestReplayTierMoves folds a journal of tier transitions through a real
// Persister Open and checks the recovered state lands every document in
// the right tier with the right metadata, and that only true exits
// (disk evictions, demotion drops) feed the tracker.
func TestReplayTierMoves(t *testing.T) {
	at := t0()
	var sumA, sumB [32]byte
	sumA[0], sumB[0] = 0xAA, 0xBB
	evs := []cache.Event{
		// a: insert → demote → promote back → stays in memory.
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/a", Size: 100}, At: at},
		{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://r/a", Size: 100},
			At: at.Add(10 * time.Second), Age: 10 * time.Second,
			EnteredAt: at, LastHit: at, Hits: 1, Sum: sumA},
		{Kind: cache.EventPromoteFromDisk, Doc: cache.Document{URL: "http://r/a", Size: 100},
			At: at.Add(20 * time.Second), EnteredAt: at, Hits: 2},
		// b: insert → demote → stays on disk.
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/b", Size: 200}, At: at.Add(time.Second)},
		{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://r/b", Size: 200},
			At: at.Add(30 * time.Second), Age: 29 * time.Second,
			EnteredAt: at.Add(time.Second), LastHit: at.Add(time.Second), Hits: 1, Sum: sumB},
		// c: insert → demote → evicted from disk (true exit, tracked).
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/c", Size: 300}, At: at.Add(2 * time.Second)},
		{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://r/c", Size: 300},
			At: at.Add(40 * time.Second), Age: 38 * time.Second,
			EnteredAt: at.Add(2 * time.Second), LastHit: at.Add(2 * time.Second), Hits: 1, Sum: sumA},
		{Kind: cache.EventEvict, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://r/c"},
			At: at.Add(50 * time.Second), Age: 48 * time.Second},
		// d: insert → demote → removed from disk (exit, untracked).
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/d", Size: 400}, At: at.Add(3 * time.Second)},
		{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://r/d", Size: 400},
			At: at.Add(60 * time.Second), Age: 57 * time.Second,
			EnteredAt: at.Add(3 * time.Second), LastHit: at.Add(3 * time.Second), Hits: 1, Sum: sumB},
		{Kind: cache.EventRemove, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://r/d"}},
		// e: demoted, then a fresh insert supersedes the disk copy.
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://r/e", Size: 500}, At: at.Add(4 * time.Second)},
		{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://r/e", Size: 500},
			At: at.Add(70 * time.Second), Age: 66 * time.Second,
			EnteredAt: at.Add(4 * time.Second), LastHit: at.Add(4 * time.Second), Hits: 1, Sum: sumA},
		{Kind: cache.EventRemove, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://r/e"}},
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
	disk := map[string]cache.DiskEntry{}
	for _, de := range st.Disk {
		disk[de.Doc.URL] = de
	}

	if len(mem) != 2 || len(disk) != 1 {
		t.Fatalf("recovered %d mem + %d disk, want 2 + 1", len(mem), len(disk))
	}
	a, ok := mem["http://r/a"]
	if !ok || a.Hits != 2 || !a.LastHit.Equal(at.Add(20*time.Second)) || !a.EnteredAt.Equal(at) {
		t.Fatalf("a = %+v (present %v)", a, ok)
	}
	e, ok := mem["http://r/e"]
	if !ok || e.Size != 512 || !e.EnteredAt.Equal(at.Add(80*time.Second)) {
		t.Fatalf("e = %+v (present %v)", e, ok)
	}
	b, ok := disk["http://r/b"]
	if !ok || b.Doc.Size != 200 || b.Sum != sumB || b.Hits != 1 || !b.LastHit.Equal(at.Add(time.Second)) {
		t.Fatalf("b = %+v (present %v)", b, ok)
	}

	// Only c's disk eviction was a tracked exit.
	if st.Tracker.TotalCount != 1 {
		t.Fatalf("tracker count = %d, want 1", st.Tracker.TotalCount)
	}
	if len(st.Tracker.Samples) != 1 || st.Tracker.Samples[0].Age != 48*time.Second {
		t.Fatalf("tracker samples = %+v", st.Tracker.Samples)
	}

	rep := p.Report()
	if rep.DiskEntries != 1 || rep.DiskBytes != 200 {
		t.Fatalf("report disk = %d entries / %d bytes", rep.DiskEntries, rep.DiskBytes)
	}
}

// TestCheckpointPersistsDiskSection drives a real tiered capture through
// WriteSnapshot and reopens: residency claims must round-trip through the
// checkpoint path, not just through in-memory encode/decode.
func TestCheckpointPersistsDiskSection(t *testing.T) {
	dir := t.TempDir()
	p := openPersister(t, dir)
	at := t0()
	var sum [32]byte
	sum[7] = 0x77
	st := State{
		Entries: []EntryState{{URL: "http://cp/m", Size: 10, EnteredAt: at, LastHit: at, Hits: 1}},
		Disk: []cache.DiskEntry{{Doc: cache.Document{URL: "http://cp/d", Size: 20},
			EnteredAt: at, LastHit: at.Add(time.Second), Hits: 3, Sum: sum}},
	}
	if err := p.Rotate(); err != nil {
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
	if !bytes.HasPrefix(raw, snapMagic) {
		t.Fatalf("snapshot magic = %q", raw[:8])
	}

	p2 := openPersister(t, dir)
	defer p2.Close()
	got := p2.RecoveredState()
	if len(got.Disk) != 1 || got.Disk[0].Doc.URL != "http://cp/d" || got.Disk[0].Sum != sum || got.Disk[0].Hits != 3 {
		t.Fatalf("recovered disk = %+v", got.Disk)
	}
}
