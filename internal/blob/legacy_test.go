package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eacache/internal/cache"
)

// The index-frame encoder as it stood before appendIndexRecord, verbatim:
// the reference the in-place encoder is compared against byte for byte,
// and the frame-length oracle of the kill-at-every-offset suite.

// ienc is a little append-only encoder.
type ienc struct{ b []byte }

func (e *ienc) u8(v byte)    { e.b = append(e.b, v) }
func (e *ienc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *ienc) i64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *ienc) raw(v []byte) { e.b = append(e.b, v...) }
func (e *ienc) str(v string) { e.u32(uint32(len(v))); e.b = append(e.b, v...) }

// marshalIndexRecord frames one record. Records with impossible fields
// (URL too long) must not be produced by the store; they panic to catch
// programming errors rather than persist garbage.
func marshalIndexRecord(r IndexRecord) []byte {
	if len(r.Entry.Doc.URL) == 0 || len(r.Entry.Doc.URL) > maxIndexURL {
		panic("blob: index record with bad URL length")
	}
	var e ienc
	if r.Del {
		e.u8(iDel)
		e.str(r.Entry.Doc.URL)
	} else {
		e.u8(iPut)
		e.str(r.Entry.Doc.URL)
		e.i64(r.Entry.Doc.Size)
		e.i64(timeToNano(r.Entry.Doc.Expires))
		e.i64(timeToNano(r.Entry.EnteredAt))
		e.i64(timeToNano(r.Entry.LastHit))
		e.i64(r.Entry.Hits)
		e.raw(r.Entry.Sum[:])
	}
	frame := make([]byte, 0, len(e.b)+8)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(e.b)-1))
	frame = append(frame, e.b...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(e.b, crcTable))
	return frame
}

// TestAppendIndexRecordMatchesLegacy: put and del frames, zero and set
// times, short and longest URLs — onto an empty slice and onto a dirty
// prefix, which must come back untouched in front of the same frame.
func TestAppendIndexRecordMatchesLegacy(t *testing.T) {
	full := cache.DiskEntry{
		Doc:       cache.Document{URL: "http://legacy/full", Size: 1 << 40, Expires: t0().Add(time.Hour)},
		EnteredAt: t0().Add(-time.Hour), LastHit: t0(), Hits: 1<<62 + 5,
		Sum: sha256.Sum256([]byte("legacy")),
	}
	long := full
	long.Doc.URL = "http://legacy/" + string(bytes.Repeat([]byte{'u'}, maxIndexURL-14))
	recs := []IndexRecord{
		{Entry: full},
		{Entry: long},
		{Entry: cache.DiskEntry{Doc: cache.Document{URL: "u"}}}, // every time zero
		{Entry: cache.DiskEntry{Doc: cache.Document{URL: "http://legacy/neg", Size: 7}, Hits: -1}},
		{Del: true, Entry: full}, // a del frame carries the URL only
		{Del: true, Entry: cache.DiskEntry{Doc: cache.Document{URL: long.Doc.URL}}},
	}
	dirty := []byte("not a frame \x00\xff")
	for i, r := range recs {
		want := marshalIndexRecord(r)
		if got := appendIndexRecord(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("record %d onto nil:\n got %x\nwant %x", i, got, want)
		}
		got := appendIndexRecord(append([]byte(nil), dirty...), r)
		if !bytes.Equal(got[:len(dirty)], dirty) || !bytes.Equal(got[len(dirty):], want) {
			t.Fatalf("record %d onto a dirty prefix:\n got %x\nwant %x%x", i, got, dirty, want)
		}
		back, valid, damage := ReplayIndex(got[len(dirty):])
		if damage != nil || valid != len(want) || len(back) != 1 || back[0].Del != r.Del || back[0].Entry.Doc.URL != r.Entry.Doc.URL {
			t.Fatalf("record %d does not replay: %+v, %d bytes, %v", i, back, valid, damage)
		}
	}
	for _, url := range []string{"", long.Doc.URL + "x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("URL of %d bytes did not panic", len(url))
				}
			}()
			appendIndexRecord(nil, IndexRecord{Entry: cache.DiskEntry{Doc: cache.Document{URL: url}}})
		}()
	}
}

// TestIndexLogGolden pins a whole index log — admit, admit, remove,
// re-admit under another body, an admit that evicts — and the blob files
// beside it to the bytes the parent commit (233fc94) wrote for the same
// calls.
func TestIndexLogGolden(t *testing.T) {
	const (
		goldenLen = 456
		goldenSum = "aa1e3b9caa397966e449f2639a316c9ee329da9a5a61cd2671114978ec5d9374"
	)
	dir := t.TempDir()
	s := openStore(t, dir, 5000)
	admit(t, s, "http://golden/a", 300, 1)
	b := admit(t, s, "http://golden/b", 4096, 2)
	s.Remove("http://golden/a")
	a := admit(t, s, "http://golden/a", 500, 3)
	c := admit(t, s, "http://golden/c", 1000, 4) // evicts b, the LRU tail
	if s.Contains("http://golden/b") || s.Len() != 2 {
		t.Fatalf("expected b evicted and two residents, have %v", s.URLs())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); len(raw) != goldenLen || got != goldenSum {
		t.Fatalf("index.log is %d bytes, sha256 %s; the parent wrote %d bytes, %s\n%x", len(raw), got, goldenLen, goldenSum, raw)
	}
	for _, e := range []cache.DiskEntry{a, c} {
		got, err := os.ReadFile(filepath.Join(dir, "blobs", hex.EncodeToString(e.Sum[:1]), hex.EncodeToString(e.Sum[:])))
		if err != nil || !bytes.Equal(got, body(e.Doc.URL, e.Doc.Size)) {
			t.Fatalf("%s: blob file differs from its body (%v)", e.Doc.URL, err)
		}
	}
	if _, err := os.Stat(blobPath(dir, b.Sum)); !os.IsNotExist(err) {
		t.Fatalf("evicted blob still on disk: %v", err)
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(left) != 0 {
		t.Fatalf("staging area not empty: %v", left)
	}
}
