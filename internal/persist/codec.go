// Binary encoding helpers shared by the journal and snapshot codecs:
// little-endian fixed-width integers, length-prefixed strings, and a
// decoder that latches the first error instead of panicking on truncated
// or hostile input (both decoders are fuzz targets).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// ErrCorrupt reports input that failed structural validation or a
// checksum. Recovery treats it as "stop replaying here", never as a
// reason to panic or refuse to start.
var ErrCorrupt = errors.New("persist: corrupt data")

// crcTable is the Castagnoli (CRC32C) polynomial table, the checksum used
// by every journal frame and the snapshot trailer.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

type encoder struct{ b []byte }

func (e *encoder) u8(v byte)     { e.b = append(e.b, v) }
func (e *encoder) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *encoder) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str(maxLen int) string {
	n := int(d.u16())
	if n > maxLen {
		d.fail("string length %d exceeds limit %d", n, maxLen)
		return ""
	}
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// done reports whether the decoder consumed its input exactly; trailing
// bytes are corruption, not padding.
func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// timeToNano flattens a time for the wire: zero time encodes as 0 so a
// never-set timestamp survives the round trip (the 1970 epoch instant is
// indistinguishable, which no caller produces).
func timeToNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func nanoToTime(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}
