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
	"math"
	"time"

	"eacache/internal/cache"
)

// Index record kinds.
const (
	iPut byte = 1 // full entry metadata: the URL became disk-resident
	iDel byte = 2 // the URL left the tier
)

const (
	// maxIndexURL bounds URL length, mirroring the journal's bound.
	maxIndexURL = 8192
	// maxIndexPayload bounds a frame payload against corrupt lengths.
	maxIndexPayload = 64 << 10
	// indexOverhead is the framing cost: length, kind, CRC.
	indexOverhead = 4 + 1 + 4
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
	}
	body := dst[start+4:] // kind + payload: what the CRC covers
	le.PutUint32(dst[start:], uint32(len(body)-1))
	return le.AppendUint32(dst, crc32.Checksum(body, crcTable))
}

// idec is a latching decoder over one payload.
type idec struct {
	b   []byte
	off int
	bad bool
}

func (d *idec) fail() { d.bad = true }

func (d *idec) take(n int) []byte {
	if d.bad || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *idec) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (d *idec) i64() int64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(v))
}

func (d *idec) str() string {
	n := d.u32()
	if d.bad || n > maxIndexURL {
		d.fail()
		return ""
	}
	v := d.take(int(n))
	if v == nil {
		return ""
	}
	return string(v)
}

// done reports whether the payload was consumed exactly and cleanly.
func (d *idec) done() bool { return !d.bad && d.off == len(d.b) }

// decodeIndexPayload decodes one record from kind + payload bytes.
func decodeIndexPayload(kind byte, payload []byte) (IndexRecord, error) {
	d := &idec{b: payload}
	var r IndexRecord
	switch kind {
	case iPut:
		r.Entry.Doc.URL = d.str()
		r.Entry.Doc.Size = d.i64()
		r.Entry.Doc.Expires = nanoToTime(d.i64())
		r.Entry.EnteredAt = nanoToTime(d.i64())
		r.Entry.LastHit = nanoToTime(d.i64())
		r.Entry.Hits = d.i64()
		copy(r.Entry.Sum[:], d.take(32))
		if !d.done() || r.Entry.Doc.URL == "" || r.Entry.Doc.Size < 0 {
			return r, ErrCorrupt
		}
	case iDel:
		r.Del = true
		r.Entry.Doc.URL = d.str()
		if !d.done() || r.Entry.Doc.URL == "" {
			return r, ErrCorrupt
		}
	default:
		return r, ErrCorrupt
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
		plen := binary.LittleEndian.Uint32(raw[off:])
		if plen > maxIndexPayload || plen > math.MaxInt32 {
			return recs, off, ErrCorrupt
		}
		total := indexOverhead + int(plen)
		if off+total > len(raw) {
			return recs, off, ErrCorrupt
		}
		body := raw[off+4 : off+4+1+int(plen)]
		wantCRC := binary.LittleEndian.Uint32(raw[off+5+int(plen):])
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
