// Append-only index log for the blob store, framed exactly like
// internal/persist's journal: every record is
//
//	u32 length | u8 kind | payload | u32 CRC32C(kind + payload)
//
// little-endian throughout, CRC over the kind byte and payload. A record
// is either fully committed or not there: replay accepts the longest
// verifiable prefix and reports where the damage starts, so a node
// killed mid-append loses at most the record being written (torn tail),
// never earlier state.
package blob

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"time"

	"eacache/internal/cache"
)

// Index record kinds. Kind 1 was the put frame of the file-per-blob
// layout; it is retired, so a log that carries one is damaged from there.
const (
	iDel byte = 2 // the URL left the tier
	iPut byte = 3 // the URL became disk-resident: entry metadata and extent

	// maxIndexURL bounds URL length, mirroring the journal's bound.
	maxIndexURL = 8192
	// maxIndexPayload bounds a frame payload against corrupt lengths.
	maxIndexPayload = 64 << 10
	// indexOverhead is the framing cost: length, kind, CRC.
	indexOverhead = 4 + 1 + 4
	// putFixed is what a put payload carries after the URL: size, three
	// times, hits, sum, segment, offset.
	putFixed = 5*8 + 32 + 4 + 8
)

// ErrCorrupt reports an index frame that failed structural validation.
var ErrCorrupt = errors.New("blob: corrupt index record")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// IndexRecord is one replayed index mutation.
type IndexRecord struct {
	// Del marks a removal record (only Entry.Doc.URL is meaningful).
	Del bool
	// Entry is the full metadata for put records.
	Entry cache.DiskEntry
	// at is where a put record's body lies.
	at extent
}

// timeToNano flattens a time for encoding; the zero time encodes as 0.
func timeToNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// nanoToTime is the inverse of timeToNano.
func nanoToTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// appendIndexRecord appends r's frame to dst, writing length, payload and
// CRC in place, and returns the extended slice. Records with impossible
// fields (URL too long) must not be produced by the store; they panic to
// catch programming errors rather than persist garbage.
func appendIndexRecord(dst []byte, r IndexRecord) []byte {
	url := r.Entry.Doc.URL
	if len(url) == 0 || len(url) > maxIndexURL {
		panic("blob: index record with bad URL length")
	}
	le := binary.LittleEndian
	start := len(dst)
	kind := iPut
	if r.Del {
		kind = iDel
	}
	dst = append(le.AppendUint32(dst, 0), kind) // payload length: set once the payload is in
	dst = le.AppendUint32(dst, uint32(len(url)))
	dst = append(dst, url...)
	if !r.Del {
		dst = le.AppendUint64(dst, uint64(r.Entry.Doc.Size))
		dst = le.AppendUint64(dst, uint64(timeToNano(r.Entry.Doc.Expires)))
		dst = le.AppendUint64(dst, uint64(timeToNano(r.Entry.EnteredAt)))
		dst = le.AppendUint64(dst, uint64(timeToNano(r.Entry.LastHit)))
		dst = le.AppendUint64(dst, uint64(r.Entry.Hits))
		dst = append(dst, r.Entry.Sum[:]...)
		dst = le.AppendUint32(dst, r.at.seg)
		dst = le.AppendUint64(dst, uint64(r.at.off))
	}
	body := dst[start+4:] // kind + payload: what the CRC covers
	le.PutUint32(dst[start:], uint32(len(body)-1))
	return le.AppendUint32(dst, crc32.Checksum(body, crcTable))
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
		r.Entry.Doc.Expires = nanoToTime(i64(1))
		r.Entry.EnteredAt = nanoToTime(i64(2))
		r.Entry.LastHit = nanoToTime(i64(3))
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
// that stopped replay (nil when raw was consumed exactly). Like the
// journal, damage is not fatal to the caller: everything before it is
// trustworthy, everything after is a torn tail to truncate.
func ReplayIndex(raw []byte) (recs []IndexRecord, valid int, damage error) {
	off := 0
	for off < len(raw) {
		if len(raw)-off < indexOverhead {
			return recs, off, ErrCorrupt
		}
		plen := int(binary.LittleEndian.Uint32(raw[off:]))
		total := indexOverhead + plen
		if plen > maxIndexPayload || off+total > len(raw) {
			return recs, off, ErrCorrupt
		}
		body := raw[off+4 : off+4+1+plen]
		wantCRC := binary.LittleEndian.Uint32(raw[off+5+plen:])
		if crc32.Checksum(body, crcTable) != wantCRC {
			return recs, off, ErrCorrupt
		}
		rec, err := decodeIndexPayload(body[0], body[1:])
		if err != nil {
			return recs, off, err
		}
		recs = append(recs, rec)
		off += total
	}
	return recs, off, nil
}
