package persist

import (
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/faults"
)

func t0() time.Time { return time.Unix(1_700_000_000, 0) }

// sampleEvents is a representative mix of every record kind. The demote
// carries what the tier controller emits; only its URL is journaled.
func sampleEvents() []cache.Event {
	at := t0()
	return []cache.Event{
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://a/1", Size: 100}, At: at},
		{Kind: cache.EventInsert, Doc: cache.Document{URL: "http://a/2", Size: 2048}, At: at.Add(time.Second)},
		{Kind: cache.EventHit, Doc: cache.Document{URL: "http://a/1", Size: 100}, At: at.Add(2 * time.Second)},
		{Kind: cache.EventPromote, Doc: cache.Document{URL: "http://a/2", Size: 2048}, At: at.Add(3 * time.Second)},
		{Kind: cache.EventEvict, Doc: cache.Document{URL: "http://a/1", Size: 100}, At: at.Add(4 * time.Second), Age: 90 * time.Second},
		{Kind: cache.EventRemove, Doc: cache.Document{URL: "http://a/2", Size: 2048}},
		{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://a/3", Size: 512},
			At: at.Add(5 * time.Second), Age: 30 * time.Second,
			EnteredAt: at, LastHit: at.Add(2 * time.Second), Hits: 4},
		{Kind: cache.EventPromoteFromDisk, Doc: cache.Document{URL: "http://a/3", Size: 512},
			At: at.Add(6 * time.Second), EnteredAt: at, LastHit: at.Add(6 * time.Second), Hits: 5},
		{Kind: cache.EventEvict, Tier: cache.TierDisk, Doc: cache.Document{URL: "http://a/4", Size: 64},
			At: at.Add(7 * time.Second), Age: 45 * time.Second},
	}
}

func encodeAll(t *testing.T, evs []cache.Event) []byte {
	t.Helper()
	var data []byte
	for _, ev := range evs {
		frame, err := MarshalEvent(ev)
		if err != nil {
			t.Fatalf("MarshalEvent(%v): %v", ev.Kind, err)
		}
		data = append(data, frame...)
	}
	return data
}

func TestJournalRoundTrip(t *testing.T) {
	want := sampleEvents()
	data := encodeAll(t, want)
	got, good, damage := ReplayJournal(data)
	if damage != nil {
		t.Fatalf("damage on clean journal: %v", damage)
	}
	if good != len(data) {
		t.Fatalf("goodBytes = %d, want %d", good, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		g := got[i]
		if w.Kind == cache.EventDemote {
			w = cache.Event{Kind: w.Kind, Doc: cache.Document{URL: w.Doc.URL}}
		}
		if g.Kind != w.Kind || g.Doc.URL != w.Doc.URL || g.Age != w.Age || g.Tier != w.Tier {
			t.Fatalf("event %d = %+v, want %+v", i, g, w)
		}
		if !g.At.Equal(w.At) {
			t.Fatalf("event %d At = %v, want %v", i, g.At, w.At)
		}
		if w.Kind == cache.EventInsert {
			if g.Doc.Size != w.Doc.Size {
				t.Fatalf("event %d doc = %+v, want %+v", i, g.Doc, w.Doc)
			}
		}
	}
}

func TestMarshalEventRejectsBadInput(t *testing.T) {
	if _, err := MarshalEvent(cache.Event{Kind: cache.EventHit}); err == nil {
		t.Fatal("empty URL accepted")
	}
	long := make([]byte, maxJournalURL+1)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := MarshalEvent(cache.Event{Kind: cache.EventHit, Doc: cache.Document{URL: string(long)}}); err == nil {
		t.Fatal("oversized URL accepted")
	}
	if _, err := MarshalEvent(cache.Event{Kind: cache.EventKind(99), Doc: cache.Document{URL: "http://a/"}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestJournalTornTailEveryOffset is the kill -9 simulation at frame
// granularity: a journal cut at EVERY possible byte offset must replay
// exactly the fully-committed frames before the cut, flag the tear, and
// never panic.
func TestJournalTornTailEveryOffset(t *testing.T) {
	evs := sampleEvents()
	data := encodeAll(t, evs)

	// Frame boundaries, so we know how many complete frames a cut keeps.
	var bounds []int
	off := 0
	for _, ev := range evs {
		frame, _ := MarshalEvent(ev)
		off += len(frame)
		bounds = append(bounds, off)
	}

	for cut := 0; cut <= len(data); cut++ {
		wantFrames := 0
		for _, b := range bounds {
			if b <= cut {
				wantFrames++
			}
		}
		got, good, damage := ReplayJournal(data[:cut])
		if len(got) != wantFrames {
			t.Fatalf("cut %d: replayed %d frames, want %d", cut, len(got), wantFrames)
		}
		wantGood := 0
		if wantFrames > 0 {
			wantGood = bounds[wantFrames-1]
		}
		if good != wantGood {
			t.Fatalf("cut %d: goodBytes = %d, want %d", cut, good, wantGood)
		}
		onBoundary := cut == wantGood
		if onBoundary && damage != nil {
			t.Fatalf("cut %d on frame boundary reported damage: %v", cut, damage)
		}
		if !onBoundary && damage == nil {
			t.Fatalf("cut %d mid-frame reported no damage", cut)
		}
	}
}

// TestJournalBitFlips drives seeded single-bit corruption (via the
// internal/faults injector PRNG) through replay: whatever bit flips, the
// replayed prefix must be a prefix of the original event sequence and
// replay must never panic.
func TestJournalBitFlips(t *testing.T) {
	evs := sampleEvents()
	data := encodeAll(t, evs)
	inj, err := faults.New(faults.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		corrupt := inj.FlipBits(data, 1+trial%3)
		got, good, _ := ReplayJournal(corrupt)
		if good > len(corrupt) {
			t.Fatalf("trial %d: goodBytes %d beyond input %d", trial, good, len(corrupt))
		}
		// Each replayed event must match the original at its position
		// unless the flip landed inside it but still passed the CRC —
		// with a 32-bit checksum over these frames a single flip cannot;
		// frames that verify are byte-identical to the originals.
		for i, g := range got {
			if i >= len(evs) {
				t.Fatalf("trial %d: replayed more events than written", trial)
			}
			w := evs[i]
			if g.Kind != w.Kind || g.Doc.URL != w.Doc.URL {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, g, w)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	at := t0()
	st := State{
		Gen: 7,
		Entries: []EntryState{
			{URL: "http://a/1", Size: 100, EnteredAt: at, LastHit: at.Add(time.Minute), Hits: 3},
			{URL: "http://a/2", Size: 2048, EnteredAt: at.Add(time.Second), LastHit: at.Add(time.Second), Hits: 1},
		},
		Tracker: cache.TrackerState{
			Window:          8,
			TotalSumSeconds: 123.5,
			TotalCount:      4,
			Samples: []cache.TrackerSample{
				{At: at, Age: 10 * time.Second},
				{At: at.Add(time.Minute), Age: 20 * time.Second},
			},
		},
	}
	got, err := DecodeSnapshot(EncodeSnapshot(st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Gen != st.Gen || len(got.Entries) != len(st.Entries) {
		t.Fatalf("got %+v", got)
	}
	for i := range st.Entries {
		w, g := st.Entries[i], got.Entries[i]
		if g.URL != w.URL || g.Size != w.Size || g.Hits != w.Hits ||
			!g.EnteredAt.Equal(w.EnteredAt) || !g.LastHit.Equal(w.LastHit) {
			t.Fatalf("entry %d = %+v, want %+v", i, g, w)
		}
	}
	tr := got.Tracker
	if tr.Window != 8 || tr.TotalCount != 4 || tr.TotalSumSeconds != 123.5 || len(tr.Samples) != 2 {
		t.Fatalf("tracker = %+v", tr)
	}
	if !tr.Samples[1].At.Equal(at.Add(time.Minute)) || tr.Samples[1].Age != 20*time.Second {
		t.Fatalf("sample = %+v", tr.Samples[1])
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	st := State{Entries: []EntryState{{URL: "http://a/1", Size: 100, EnteredAt: t0(), LastHit: t0(), Hits: 1}}}
	data := EncodeSnapshot(st)

	inj, err := faults.New(faults.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for trial := 0; trial < 300; trial++ {
		corrupt := inj.FlipBits(data, 1)
		if _, derr := DecodeSnapshot(corrupt); derr != nil {
			rejected++
		}
	}
	// A single bit flip anywhere (magic, body, or trailer) must be caught
	// by the magic check or the CRC32C; nothing may slip through.
	if rejected != 300 {
		t.Fatalf("only %d/300 single-bit corruptions rejected", rejected)
	}

	for _, tc := range [][]byte{nil, {1, 2, 3}, data[:len(data)-1], data[:8]} {
		if _, derr := DecodeSnapshot(tc); derr == nil {
			t.Fatalf("truncated snapshot (%d bytes) accepted", len(tc))
		}
	}
}
