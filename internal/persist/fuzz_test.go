package persist

import (
	"bytes"
	"testing"
	"time"

	"eacache/internal/cache"
)

// FuzzJournalReplay throws arbitrary bytes at the journal replayer: it must
// never panic, never claim more verified bytes than it was given, and every
// event it accepts must re-marshal into a journal that replays cleanly to
// the same events (decoded values are always re-journalable, so recovery
// can rotate them into a fresh generation).
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{})
	var clean []byte
	for _, ev := range sampleEvents() {
		frame, err := MarshalEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, frame...)
	}
	f.Add(clean)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0}, 64))
	// The parent's retired frames behind good ones: well-formed, refused.
	f.Add(append(append(clean[:len(clean):len(clean)], parentDemoteFrame(demoteEvent())...), parentDiskRemoveFrame("http://a/5")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, good, _ := ReplayJournal(data)
		if good < 0 || good > len(data) {
			t.Fatalf("goodBytes %d outside [0, %d]", good, len(data))
		}
		// Re-encode the way Append does, frame after frame onto one
		// buffer, and hold each frame against the legacy encoder.
		var reenc []byte
		for _, ev := range events {
			at := len(reenc)
			var err error
			if reenc, err = appendEvent(reenc, ev); err != nil {
				t.Fatalf("replayed event does not re-marshal: %+v: %v", ev, err)
			}
			if want, _ := legacyMarshalEvent(ev); !bytes.Equal(reenc[at:], want) {
				t.Fatalf("appendEvent and the legacy encoder disagree on %+v:\n got %x\nwant %x", ev, reenc[at:], want)
			}
		}
		again, good2, damage2 := ReplayJournal(reenc)
		if damage2 != nil || good2 != len(reenc) {
			t.Fatalf("re-encoded journal damaged: good %d/%d, %v", good2, len(reenc), damage2)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encoded journal replayed %d events, want %d", len(again), len(events))
		}
		for i := range events {
			w, g := events[i], again[i]
			if g.Kind != w.Kind || g.Doc != w.Doc || g.Age != w.Age || !g.At.Equal(w.At) {
				t.Fatalf("event %d changed in round trip: %+v -> %+v", i, w, g)
			}
		}
	})
}

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot decoder: it
// must never panic, and anything it accepts must re-encode and re-decode
// to the same state (so a recovered snapshot can itself be snapshotted).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(EncodeSnapshot(State{}))
	f.Add(EncodeSnapshot(State{
		Gen:     3,
		Entries: []EntryState{{URL: "http://a/1", Size: 9, EnteredAt: time.Unix(5, 0), LastHit: time.Unix(6, 0), Hits: 2}},
		Tracker: cache.TrackerState{Window: 4, TotalSumSeconds: 1.5, TotalCount: 1,
			Samples: []cache.TrackerSample{{At: time.Unix(7, 0), Age: time.Second}}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		again, err := DecodeSnapshot(EncodeSnapshot(st))
		if err != nil {
			t.Fatalf("accepted snapshot failed re-encode round trip: %v", err)
		}
		if again.Gen != st.Gen || len(again.Entries) != len(st.Entries) ||
			len(again.Tracker.Samples) != len(st.Tracker.Samples) {
			t.Fatalf("round trip changed snapshot: %+v -> %+v", st, again)
		}
	})
}
