// The snapshot: a point-in-time image of the whole cache metadata state —
// every live entry with its placement-relevant metadata plus the
// expiration-age tracker — written atomically (temp file, fsync, rename)
// and verified end-to-end with a CRC32C trailer. A snapshot also records
// the generation of the journal that continues it, so recovery knows which
// journal chain to replay on top.
//
// File layout (little-endian):
//
//	[8]b  magic "EACSNAP3" (any other magic is a rejected snapshot)
//	u64   journal generation
//	u32   entry count
//	per entry: url (u16 len + bytes), i64 size, i64 expires,
//	           i64 enteredAt, i64 lastHit, i64 hits
//	i64   tracker window, i64 tracker horizon
//	f64   tracker cumulative sum (seconds), i64 tracker cumulative count
//	u32   tracker sample count, per sample: i64 at, i64 age
//	u32   CRC32C over everything after the magic
//
// Under a tiered store the entries are the memory tier's and the tracker
// is the advertised exit tracker; blob-tier residency is not imaged (the
// blob index is its record).
package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"eacache/internal/cache"
)

var snapMagic = []byte("EACSNAP3")

// EntryState is one cached document's persisted metadata.
type EntryState struct {
	URL       string
	Size      int64
	Expires   time.Time
	EnteredAt time.Time
	LastHit   time.Time
	Hits      int64
}

// State is the recoverable image of a cache.Store: its live entries (in
// ascending last-hit order, so restoring in sequence rebuilds the LRU
// recency order) and its expiration-age tracker. Document bodies are
// deliberately absent — they are synthetic in this reproduction, so only
// the metadata that drives placement and replacement is durable.
type State struct {
	// Gen is the generation of the journal that continues this snapshot.
	Gen uint64
	// Entries are the live documents, oldest last-hit first.
	Entries []EntryState
	// Tracker is the node's one expiration-age tracker, the contention
	// signal it advertises. Under a tiered store only true exits feed it.
	Tracker cache.TrackerState
}

// LiveBytes sums the entry sizes.
func (st State) LiveBytes() int64 {
	var n int64
	for _, e := range st.Entries {
		n += e.Size
	}
	return n
}

// EncodeSnapshot serialises st.
func EncodeSnapshot(st State) []byte {
	var e encoder
	e.u64(st.Gen)
	e.u32(uint32(len(st.Entries)))
	for _, en := range st.Entries {
		e.str(en.URL)
		e.i64(en.Size)
		e.i64(timeToNano(en.Expires))
		e.i64(timeToNano(en.EnteredAt))
		e.i64(timeToNano(en.LastHit))
		e.i64(en.Hits)
	}
	e.i64(int64(st.Tracker.Window))
	e.i64(int64(st.Tracker.Horizon))
	e.f64(st.Tracker.TotalSumSeconds)
	e.i64(st.Tracker.TotalCount)
	e.u32(uint32(len(st.Tracker.Samples)))
	for _, s := range st.Tracker.Samples {
		e.i64(timeToNano(s.At))
		e.i64(int64(s.Age))
	}

	out := make([]byte, 0, len(snapMagic)+len(e.b)+4)
	out = append(out, snapMagic...)
	out = append(out, e.b...)
	var tr encoder
	tr.u32(crc32.Checksum(e.b, crcTable))
	return append(out, tr.b...)
}

// minSnapEntry is the smallest possible encoded entry (1-byte URL), used
// to sanity-bound counts before allocating.
const minSnapEntry = 2 + 1 + 5*8

// DecodeSnapshot parses and verifies a snapshot. Any structural damage or
// checksum mismatch returns an error wrapping ErrCorrupt; the caller falls
// back to a cold start rather than trusting a partial image.
func DecodeSnapshot(data []byte) (State, error) {
	if len(data) < len(snapMagic)+4 {
		return State{}, fmt.Errorf("%w: snapshot too short (%d bytes)", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return State{}, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	body := data[len(snapMagic) : len(data)-4]
	want := (&decoder{b: data[len(data)-4:]}).u32()
	if got := crc32.Checksum(body, crcTable); got != want {
		return State{}, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}

	d := &decoder{b: body}
	st := State{Gen: d.u64()}
	n := int(d.u32())
	if n > len(body)/minSnapEntry {
		return State{}, fmt.Errorf("%w: entry count %d impossible for %d bytes", ErrCorrupt, n, len(body))
	}
	st.Entries = make([]EntryState, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		en := EntryState{URL: d.str(maxJournalURL)}
		en.Size = d.i64()
		en.Expires = nanoToTime(d.i64())
		en.EnteredAt = nanoToTime(d.i64())
		en.LastHit = nanoToTime(d.i64())
		en.Hits = d.i64()
		if d.err != nil {
			return State{}, d.err
		}
		if en.URL == "" || en.Size <= 0 || seen[en.URL] {
			return State{}, fmt.Errorf("%w: snapshot entry %d invalid (url %q, size %d)", ErrCorrupt, i, en.URL, en.Size)
		}
		seen[en.URL] = true
		st.Entries = append(st.Entries, en)
	}
	st.Tracker.Window = int(d.i64())
	st.Tracker.Horizon = time.Duration(d.i64())
	st.Tracker.TotalSumSeconds = d.f64()
	st.Tracker.TotalCount = d.i64()
	sn := int(d.u32())
	if sn > (len(body)-d.off)/16+1 {
		return State{}, fmt.Errorf("%w: sample count %d impossible", ErrCorrupt, sn)
	}
	st.Tracker.Samples = make([]cache.TrackerSample, 0, sn)
	for i := 0; i < sn; i++ {
		at := nanoToTime(d.i64())
		age := clampDuration(d.i64())
		st.Tracker.Samples = append(st.Tracker.Samples, cache.TrackerSample{At: at, Age: age})
	}
	if err := d.done(); err != nil {
		return State{}, err
	}
	return st, nil
}

// CaptureState images a live store into a State. It accepts any
// cache.StoreView: a *cache.Store (the caller holds whatever lock
// serialises access to it) or the consistent all-shards-locked view a
// *cache.ShardedStore passes to its Checkpoint callback.
func CaptureState(store cache.StoreView) State {
	entries := store.Entries()
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].LastHit.Equal(entries[j].LastHit) {
			return entries[i].LastHit.Before(entries[j].LastHit)
		}
		return entries[i].Doc.URL < entries[j].Doc.URL
	})
	st := State{
		Entries: make([]EntryState, 0, len(entries)),
		Tracker: store.TrackerState(),
	}
	for _, e := range entries {
		st.Entries = append(st.Entries, EntryState{
			URL:       e.Doc.URL,
			Size:      e.Doc.Size,
			Expires:   e.Doc.Expires,
			EnteredAt: e.EnteredAt,
			LastHit:   e.LastHit,
			Hits:      e.Hits,
		})
	}
	return st
}

// RestoreStats reports what Restore put back.
type RestoreStats struct {
	// Entries and Bytes count the restored documents.
	Entries int
	Bytes   int64
	// Skipped counts entries that could not be restored (they no longer
	// fit, e.g. the store was reopened with a smaller capacity).
	Skipped int
}

// RestoreTarget is the write side of recovery: what Restore needs from a
// store to load a recovered State. Implemented by *cache.Store and
// *cache.ShardedStore.
type RestoreTarget interface {
	RestoreEntry(doc cache.Document, enteredAt, lastHit time.Time, hits int64) error
	RestoreTracker(st cache.TrackerState)
}

// Restore loads a recovered State into an empty store: entries in
// ascending last-hit order (so the LRU list rebuilds in recency order,
// and heap policies re-key from the restored metadata) and the
// expiration-age tracker. Entries that do not fit are skipped and
// counted, never fatal — a node that recovers less than everything is
// still better than one that rejoins cold.
func Restore(store RestoreTarget, st State) RestoreStats {
	entries := append([]EntryState(nil), st.Entries...)
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].LastHit.Before(entries[j].LastHit)
	})
	var stats RestoreStats
	for _, e := range entries {
		doc := cache.Document{URL: e.URL, Size: e.Size, Expires: e.Expires}
		if err := store.RestoreEntry(doc, e.EnteredAt, e.LastHit, e.Hits); err != nil {
			stats.Skipped++
			continue
		}
		stats.Entries++
		stats.Bytes += e.Size
	}
	store.RestoreTracker(st.Tracker)
	return stats
}
