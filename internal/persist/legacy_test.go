package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/frame"
)

// legacyMarshalEvent is MarshalEvent as it stood before appendEvent
// (payload built in one encoder, copied into a second behind the length),
// over the frame set the journal writes now: the reference the in-place
// encoder is compared against byte for byte.
func legacyMarshalEvent(ev cache.Event) ([]byte, error) {
	if ev.Doc.URL == "" || len(ev.Doc.URL) > maxJournalURL {
		return nil, fmt.Errorf("persist: bad journal URL (len %d)", len(ev.Doc.URL))
	}
	kind := byte(ev.Kind)
	if ev.Tier == cache.TierDisk {
		if ev.Kind != cache.EventEvict {
			return nil, fmt.Errorf("persist: disk-tier %v event has no journal encoding", ev.Kind)
		}
		kind = kindDiskEvict
	}
	var p encoder
	p.str(ev.Doc.URL)
	switch ev.Kind {
	case cache.EventInsert:
		p.i64(ev.Doc.Size)
		p.i64(0) // the expiry slot, now reserved
		p.i64(frame.TimeToNano(ev.At))
	case cache.EventHit, cache.EventPromote:
		p.i64(frame.TimeToNano(ev.At))
	case cache.EventEvict:
		p.i64(frame.TimeToNano(ev.At))
		p.i64(int64(ev.Age))
	case cache.EventRemove, cache.EventDemote:
		// URL only.
	case cache.EventPromoteFromDisk:
		p.i64(frame.TimeToNano(ev.At))
		p.i64(ev.Doc.Size)
		p.i64(0) // the expiry slot, now reserved
		p.i64(frame.TimeToNano(ev.EnteredAt))
		p.i64(ev.Hits)
	default:
		return nil, fmt.Errorf("persist: unknown event kind %v", ev.Kind)
	}

	return rawFrame(kind, p.b), nil
}

// rawFrame frames payload under kind with a valid CRC, whatever they are.
func rawFrame(kind byte, payload []byte) []byte {
	le := binary.LittleEndian
	out := append(le.AppendUint32(nil, uint32(len(payload))), kind)
	out = append(out, payload...)
	return le.AppendUint32(out, frame.Checksum(out[4:]))
}

// parentDemoteFrame and parentDiskRemoveFrame are the two frames of the
// parent commit's journal (b9c72ce) that are retired: the demote that
// restated the blob index's put frame — metadata and checksum behind the
// URL — and kind 9. Valid CRCs, so only the decoder can turn them away.
func parentDemoteFrame(ev cache.Event) []byte {
	var p encoder
	p.str(ev.Doc.URL)
	p.i64(frame.TimeToNano(ev.At))
	p.i64(int64(ev.Age))
	p.i64(ev.Doc.Size)
	p.i64(0) // the expiry slot, now reserved
	p.i64(frame.TimeToNano(ev.EnteredAt))
	p.i64(frame.TimeToNano(ev.LastHit))
	p.i64(ev.Hits)
	p.b = append(p.b, make([]byte, 32)...) // the checksum
	return rawFrame(byte(cache.EventDemote), p.b)
}

func parentDiskRemoveFrame(url string) []byte {
	var p encoder
	p.str(url)
	return rawFrame(9, p.b)
}

// TestAppendEventMatchesLegacy: every kind under both tiers, including
// the combinations and URLs with no encoding — onto an empty slice and
// onto a dirty prefix. An accepted event yields the legacy bytes behind
// an untouched prefix; a refused one yields the legacy error and the
// slice it was given.
func TestAppendEventMatchesLegacy(t *testing.T) {
	at := t0()
	longest := "http://a/" + string(bytes.Repeat([]byte{'u'}, maxJournalURL-9))
	var evs []cache.Event
	for _, url := range []string{"http://a/1", "u", longest, "", longest + "x"} {
		for kind := cache.EventKind(0); kind <= 10; kind++ {
			for _, tier := range []cache.Tier{cache.TierMemory, cache.TierDisk} {
				evs = append(evs, cache.Event{
					Kind: kind, Tier: tier,
					Doc: cache.Document{URL: url, Size: 1 << 33},
					At:  at.Add(time.Minute), Age: 90 * time.Second,
					EnteredAt: at.Add(-time.Hour), LastHit: at, Hits: 1<<40 + 3,
				})
			}
		}
	}
	evs = append(evs, sampleEvents()...)
	evs = append(evs, cache.Event{Kind: cache.EventDemote, Doc: cache.Document{URL: "http://zero/"}}) // zero times
	dirty := []byte("not a frame \x00\xff")
	accepted := 0
	for i, ev := range evs {
		want, werr := legacyMarshalEvent(ev)
		for _, prefix := range [][]byte{nil, dirty} {
			got, err := appendEvent(append([]byte(nil), prefix...), ev)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("event %d (%v, tier %v): err %v, legacy %v", i, ev.Kind, ev.Tier, err, werr)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("event %d (%v, tier %v) onto %d bytes:\n got %x\nwant %x", i, ev.Kind, ev.Tier, len(prefix), got[len(prefix):], want)
			}
		}
		if got, err := MarshalEvent(ev); !bytes.Equal(got, want) || (err == nil) != (werr == nil) {
			t.Fatalf("event %d: MarshalEvent disagrees with the legacy encoder", i)
		}
		if werr == nil {
			accepted++
		}
	}
	// 8 encodable kind×tier pairs for each of the three good URLs, plus
	// the hand-written ones.
	if want := 3*8 + len(sampleEvents()) + 1; accepted != want {
		t.Fatalf("%d events were encodable, expected %d", accepted, want)
	}
}

// TestExpirySlotIsSkipped: the insert and promote-disk frames and the
// EACSNAP3 entry keep the 8-byte slot where a document expiry used to be.
// A journal or snapshot written while the slot still held a deadline
// reads back exactly as one written with the slot zero.
func TestExpirySlotIsSkipped(t *testing.T) {
	const deadline = 1_700_003_600_000_000_000
	at := t0()
	url := "http://a/old"
	var ins, pd encoder
	ins.str(url)
	ins.i64(2048)
	ins.i64(deadline)
	ins.i64(frame.TimeToNano(at))
	pd.str(url)
	pd.i64(frame.TimeToNano(at))
	pd.i64(2048)
	pd.i64(deadline)
	pd.i64(frame.TimeToNano(at))
	pd.i64(3)
	old := append(rawFrame(byte(cache.EventInsert), ins.b), rawFrame(byte(cache.EventPromoteFromDisk), pd.b)...)
	now := encodeAll(t, []cache.Event{
		{Kind: cache.EventInsert, Doc: cache.Document{URL: url, Size: 2048}, At: at},
		{Kind: cache.EventPromoteFromDisk, Doc: cache.Document{URL: url, Size: 2048}, At: at, EnteredAt: at, Hits: 3},
	})
	if len(old) != len(now) {
		t.Fatalf("old frames are %d bytes, new %d", len(old), len(now))
	}
	got, good, damage := ReplayJournal(old)
	want, _, _ := ReplayJournal(now)
	if damage != nil || good != len(old) || len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("old frames replay as %+v (%d of %d bytes, %v), want %+v", got, good, len(old), damage, want)
	}

	entry := EntryState{URL: url, Size: 2048, EnteredAt: at, LastHit: at, Hits: 3}
	snap := EncodeSnapshot(State{Gen: 1, Entries: []EntryState{entry}})
	slot := len(snapMagic) + 8 + 4 + 2 + len(url) + 8 // magic, gen, count, url, size
	if binary.LittleEndian.Uint64(snap[slot:]) != 0 {
		t.Fatal("snapshot wrote a non-zero expiry slot")
	}
	binary.LittleEndian.PutUint64(snap[slot:], deadline)
	binary.LittleEndian.PutUint32(snap[len(snap)-4:], frame.Checksum(snap[len(snapMagic):len(snap)-4]))
	st, err := DecodeSnapshot(snap)
	if err != nil || len(st.Entries) != 1 || st.Entries[0] != entry {
		t.Fatalf("old snapshot decodes as %+v, %v; want %+v", st.Entries, err, entry)
	}
}
