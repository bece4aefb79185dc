// Package frame is the record framing of the node's two append-only logs,
// the write-ahead journal (internal/persist) and the blob tier's index log
// (internal/blob). Every record is one frame, little-endian throughout:
//
//	u32  payload length
//	u8   record kind
//	[]b  payload
//	u32  CRC32C over kind byte + payload
//
// A frame is written with a single write(), so a crash leaves at worst one
// torn frame at the tail; Replay keeps the longest verifiable prefix and
// reports where the damage starts. Each log owns its kinds and payloads.
// The package also holds the one CRC32C table, which the snapshot trailer
// and the blob tier's body checksums use too, and the time encoding both
// payload codecs share.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

const (
	// Overhead is the non-payload bytes of a frame: length, kind, CRC.
	Overhead = 4 + 1 + 4
	// maxPayload bounds one frame's payload so a corrupted length field
	// cannot demand an absurd allocation during replay.
	maxPayload = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Update extends crc, the CRC32C of the bytes before b, over b: a checksum
// streamed in pieces. Update(0, b) == Checksum(b).
func Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// Begin appends the head of a kind frame to dst, with its length left for
// End to fill in, and returns the extended slice and where the frame
// starts. The caller appends the payload, then calls End.
func Begin(dst []byte, kind byte) ([]byte, int) {
	return append(binary.LittleEndian.AppendUint32(dst, 0), kind), len(dst)
}

// End closes the frame that Begin opened at start: it writes the payload
// length in place and appends the CRC.
func End(dst []byte, start int) []byte {
	body := dst[start+4:] // kind + payload: what the CRC covers
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)-1))
	return binary.LittleEndian.AppendUint32(dst, Checksum(body))
}

// Replay hands each verified frame of data, in order, to decode and
// returns how many bytes of data those frames span. A nil damage means
// data ended exactly on a frame boundary; otherwise everything past the
// returned offset is to be discarded. Damage to the framing itself (a torn
// frame, a bad length, a checksum mismatch) wraps corrupt, the caller's
// sentinel; a decode error ends replay at its frame and is wrapped as is.
func Replay(data []byte, corrupt error, decode func(kind byte, payload []byte) error) (good int, damage error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 4 {
			return off, fmt.Errorf("%w: torn frame header (%d bytes) at offset %d", corrupt, len(rest), off)
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		if plen > maxPayload {
			return off, fmt.Errorf("%w: frame payload length %d exceeds limit at offset %d", corrupt, plen, off)
		}
		total := Overhead + plen
		if len(rest) < total {
			return off, fmt.Errorf("%w: torn frame (%d of %d bytes) at offset %d", corrupt, len(rest), total, off)
		}
		if Checksum(rest[4:5+plen]) != binary.LittleEndian.Uint32(rest[5+plen:]) {
			return off, fmt.Errorf("%w: frame checksum mismatch at offset %d", corrupt, off)
		}
		if err := decode(rest[4], rest[5:5+plen]); err != nil {
			return off, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		off += total
	}
	return off, nil
}

// TimeToNano flattens a time for a payload: the zero time encodes as 0, so
// a never-set timestamp survives the round trip (the 1970 epoch instant is
// indistinguishable, which no caller produces).
func TimeToNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// NanoToTime is the inverse of TimeToNano.
func NanoToTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}
