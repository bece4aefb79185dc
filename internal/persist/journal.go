// The write-ahead journal: an append-only file of CRC32C-framed records,
// one per mutation of the memory tier or of the advertised exit tracker.
// Each record is appended with a single write() so a crash leaves at worst
// one torn frame at the tail; replay verifies every frame checksum and
// stops at the first bad one, keeping every fully-committed record and
// discarding the tear.
//
// Frame layout (little-endian):
//
//	u32  payload length
//	u8   record kind (cache.EventKind)
//	[]b  payload
//	u32  CRC32C over kind byte + payload
//
// Payloads per kind (url = u16 length + bytes, times are unix nanos):
//
//	insert:       url, i64 size, i64 expires, i64 at
//	hit:          url, i64 at
//	promote:      url, i64 at
//	evict:        url, i64 at, i64 age
//	remove:       url
//	demote:       url
//	promote-disk: url, i64 at, i64 size, i64 expires, i64 enteredAt,
//	              i64 hits
//	disk-evict:   url, i64 at, i64 age
//
// Which documents are disk-resident is the blob index's to record
// (internal/blob), not the journal's: a demote only takes the URL out of
// memory, a promote-disk rebuilds the memory entry, a disk-evict feeds the
// exit tracker, and a disk-tier remove has no frame at all. Memory-tier
// events use their cache.EventKind value (1-7) as the kind byte and the
// disk-tier evict gets the dedicated code 8. Kind 9 (disk-remove) and the
// demote frame that carried the entry's metadata and checksum are retired:
// a journal that holds one is damaged from there.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"eacache/internal/cache"
)

const (
	// maxJournalURL mirrors hproto's URL bound; nothing longer can enter
	// a cache through the protocol.
	maxJournalURL = 8 * 1024
	// maxFramePayload bounds one frame's payload so a corrupted length
	// field cannot demand an absurd allocation during replay.
	maxFramePayload = 64 * 1024
	// frameOverhead is the non-payload bytes of a frame: length(4) +
	// kind(1) + crc(4).
	frameOverhead = 9
)

// kindDiskEvict is the journal kind byte of a disk-tier eviction: the
// payload of its memory twin under a distinct code, so replay can restore
// the Tier dimension.
const kindDiskEvict byte = 8

// MarshalEvent frames one cache event for the journal.
func MarshalEvent(ev cache.Event) ([]byte, error) { return appendEvent(nil, ev) }

// appendEvent appends ev's frame to dst, writing length, payload and CRC
// in place, and returns the extended slice. An event with no journal
// encoding is an error and leaves dst as it was.
func appendEvent(dst []byte, ev cache.Event) ([]byte, error) {
	if ev.Doc.URL == "" || len(ev.Doc.URL) > maxJournalURL {
		return dst, fmt.Errorf("persist: bad journal URL (len %d)", len(ev.Doc.URL))
	}
	kind := byte(ev.Kind)
	if ev.Tier == cache.TierDisk {
		if ev.Kind != cache.EventEvict {
			return dst, fmt.Errorf("persist: disk-tier %v event has no journal encoding", ev.Kind)
		}
		kind = kindDiskEvict
	}
	start := len(dst)
	p := encoder{b: dst}
	p.u32(0) // payload length, set once the payload is in
	p.u8(kind)
	p.str(ev.Doc.URL)
	switch ev.Kind {
	case cache.EventInsert:
		p.i64(ev.Doc.Size)
		p.i64(timeToNano(ev.Doc.Expires))
		p.i64(timeToNano(ev.At))
	case cache.EventHit, cache.EventPromote:
		p.i64(timeToNano(ev.At))
	case cache.EventEvict:
		p.i64(timeToNano(ev.At))
		p.i64(int64(ev.Age))
	case cache.EventRemove, cache.EventDemote:
		// URL only.
	case cache.EventPromoteFromDisk:
		p.i64(timeToNano(ev.At))
		p.i64(ev.Doc.Size)
		p.i64(timeToNano(ev.Doc.Expires))
		p.i64(timeToNano(ev.EnteredAt))
		p.i64(ev.Hits)
	default:
		return dst, fmt.Errorf("persist: unknown event kind %v", ev.Kind)
	}
	body := p.b[start+4:] // kind + payload: what the CRC covers
	binary.LittleEndian.PutUint32(p.b[start:], uint32(len(body)-1))
	p.u32(crc32.Checksum(body, crcTable))
	return p.b, nil
}

// decodeEventPayload rebuilds the event from one verified frame payload.
func decodeEventPayload(kind byte, payload []byte) (cache.Event, error) {
	ev := cache.Event{Kind: cache.EventKind(kind)}
	if kind == kindDiskEvict {
		ev.Kind, ev.Tier = cache.EventEvict, cache.TierDisk
	}
	d := &decoder{b: payload}
	ev.Doc.URL = d.str(maxJournalURL)
	if d.err == nil && ev.Doc.URL == "" {
		d.fail("empty URL")
	}
	switch {
	case ev.Kind == cache.EventInsert:
		ev.Doc.Size = d.i64()
		ev.Doc.Expires = nanoToTime(d.i64())
		ev.At = nanoToTime(d.i64())
		if d.err == nil && ev.Doc.Size <= 0 {
			d.fail("non-positive size %d", ev.Doc.Size)
		}
	case ev.Kind == cache.EventHit, ev.Kind == cache.EventPromote:
		ev.At = nanoToTime(d.i64())
	case ev.Kind == cache.EventEvict:
		ev.At = nanoToTime(d.i64())
		ev.Age = clampDuration(d.i64())
	case ev.Kind == cache.EventRemove, ev.Kind == cache.EventDemote:
		// URL only.
	case ev.Kind == cache.EventPromoteFromDisk:
		ev.At = nanoToTime(d.i64())
		ev.Doc.Size = d.i64()
		ev.Doc.Expires = nanoToTime(d.i64())
		ev.EnteredAt = nanoToTime(d.i64())
		ev.Hits = d.i64()
		ev.LastHit = ev.At
		if d.err == nil && ev.Doc.Size <= 0 {
			d.fail("non-positive size %d", ev.Doc.Size)
		}
	default:
		d.fail("unknown record kind %d", kind)
	}
	if err := d.done(); err != nil {
		return cache.Event{}, err
	}
	return ev, nil
}

// clampDuration clamps a journalled duration to non-negative; a negative
// age never leaves MarshalEvent, so one on disk is corruption that decoded
// to valid framing — clamp rather than poison the tracker.
func clampDuration(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	return time.Duration(n)
}

// ReplayJournal decodes frames from data in order until the first bad
// frame, returning the decoded events and how many bytes of data they
// span. A nil damage means the journal ended exactly on a frame boundary;
// otherwise damage says why replay stopped (torn tail, checksum mismatch,
// malformed payload) and everything past the reported offset must be
// discarded — the caller truncates the file there. Replay never fails
// outright: a corrupt journal yields the longest verifiable prefix.
func ReplayJournal(data []byte) (events []cache.Event, goodBytes int, damage error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 4 {
			return events, off, fmt.Errorf("%w: torn frame header (%d bytes) at offset %d", ErrCorrupt, len(rest), off)
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		if plen > maxFramePayload {
			return events, off, fmt.Errorf("%w: frame payload length %d exceeds limit at offset %d", ErrCorrupt, plen, off)
		}
		total := frameOverhead + plen
		if len(rest) < total {
			return events, off, fmt.Errorf("%w: torn frame (%d of %d bytes) at offset %d", ErrCorrupt, len(rest), total, off)
		}
		kind := rest[4]
		payload := rest[5 : 5+plen]
		want := binary.LittleEndian.Uint32(rest[5+plen : total])
		if got := crc32.Checksum(rest[4:5+plen], crcTable); got != want {
			return events, off, fmt.Errorf("%w: frame checksum mismatch at offset %d", ErrCorrupt, off)
		}
		ev, err := decodeEventPayload(kind, payload)
		if err != nil {
			return events, off, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		events = append(events, ev)
		off += total
	}
	return events, off, nil
}
