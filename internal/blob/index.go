// Append-only index log for the blob store, one internal/frame frame per
// record, as the journal of internal/persist is. A record is either fully
// committed or not there: replay accepts the longest verifiable prefix and
// reports where the damage starts, so a node killed mid-append loses at
// most the record being written (torn tail), never earlier state.
//
// Payloads per kind (url = u32 length + bytes, times are unix nanos):
//
//	del: url
//	put: url, i64 size, i64 0, i64 enteredAt, i64 lastHit, i64 hits,
//	     [32]b sum, u32 segment, i64 offset
//
// The i64 0 is a reserved slot where a document expiry used to be.
package blob

import (
	"encoding/binary"
	"errors"

	"eacache/internal/cache"
	"eacache/internal/frame"
)

// Index record kinds. Kind 1 was the put frame of the file-per-blob
// layout; it is retired, so a log that carries one is damaged from there.
const (
	iDel byte = 2 // the URL left the tier
	iPut byte = 3 // the URL became disk-resident: entry metadata and extent

	// maxIndexURL bounds URL length, mirroring the journal's bound.
	maxIndexURL = 8192
	// putFixed is what a put payload carries after the URL: size, a
	// reserved zero slot, two times, hits, sum, segment, offset.
	putFixed = 5*8 + 32 + 4 + 8
)

// ErrCorrupt reports an index frame that failed structural validation.
var ErrCorrupt = errors.New("blob: corrupt index record")

// IndexRecord is one replayed index mutation.
type IndexRecord struct {
	// Del marks a removal record (only Entry.Doc.URL is meaningful).
	Del bool
	// Entry is the full metadata for put records.
	Entry cache.DiskEntry
	// at is where a put record's body lies.
	at extent
}

// appendIndexRecord appends r's frame to dst and returns the extended
// slice. Records with impossible fields (URL too long) must not be
// produced by the store; they panic to catch programming errors rather
// than persist garbage.
func appendIndexRecord(dst []byte, r IndexRecord) []byte {
	url := r.Entry.Doc.URL
	if len(url) == 0 || len(url) > maxIndexURL {
		panic("blob: index record with bad URL length")
	}
	le := binary.LittleEndian
	kind := iPut
	if r.Del {
		kind = iDel
	}
	dst, start := frame.Begin(dst, kind)
	dst = le.AppendUint32(dst, uint32(len(url)))
	dst = append(dst, url...)
	if !r.Del {
		dst = le.AppendUint64(dst, uint64(r.Entry.Doc.Size))
		dst = le.AppendUint64(dst, 0) // reserved: the retired expiry
		dst = le.AppendUint64(dst, uint64(frame.TimeToNano(r.Entry.EnteredAt)))
		dst = le.AppendUint64(dst, uint64(frame.TimeToNano(r.Entry.LastHit)))
		dst = le.AppendUint64(dst, uint64(r.Entry.Hits))
		dst = append(dst, r.Entry.Sum[:]...)
		dst = le.AppendUint32(dst, r.at.seg)
		dst = le.AppendUint64(dst, uint64(r.at.off))
	}
	return frame.End(dst, start)
}

// decodeIndexPayload decodes one record from kind + payload bytes.
func decodeIndexPayload(kind byte, p []byte) (r IndexRecord, err error) {
	le := binary.LittleEndian
	if kind != iPut && kind != iDel || len(p) < 4 {
		return r, ErrCorrupt
	}
	n := int(le.Uint32(p))
	rest := len(p) - 4 - n
	if n == 0 || n > maxIndexURL || kind == iDel && rest != 0 || kind == iPut && rest != putFixed {
		return r, ErrCorrupt
	}
	r.Del = kind == iDel
	r.Entry.Doc.URL = string(p[4 : 4+n])
	if !r.Del {
		p = p[4+n:]
		i64 := func(i int) int64 { return int64(le.Uint64(p[8*i:])) }
		r.Entry.Doc.Size = i64(0)
		r.Entry.EnteredAt = frame.NanoToTime(i64(2))
		r.Entry.LastHit = frame.NanoToTime(i64(3))
		r.Entry.Hits = i64(4)
		copy(r.Entry.Sum[:], p[40:72])
		r.at = extent{seg: le.Uint32(p[72:]), off: int64(le.Uint64(p[76:]))}
		if r.Entry.Doc.Size < 0 || r.at.off < 0 {
			return r, ErrCorrupt
		}
	}
	return r, nil
}

// ReplayIndex decodes the longest verifiable prefix of raw. It returns
// the records, the number of bytes that prefix covers, and the damage
// that stopped replay (nil when raw was consumed exactly; otherwise it
// wraps ErrCorrupt). Like the journal, damage is not fatal to the caller:
// everything before it is trustworthy, everything after is a torn tail to
// truncate.
func ReplayIndex(raw []byte) (recs []IndexRecord, valid int, damage error) {
	valid, damage = frame.Replay(raw, ErrCorrupt, func(kind byte, payload []byte) error {
		rec, err := decodeIndexPayload(kind, payload)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	return recs, valid, damage
}
