package blob

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"eacache/internal/cache"
	"eacache/internal/frame"
)

// rawFrame builds an index frame of any kind around payload, CRC and all.
func rawFrame(kind byte, payload []byte) []byte {
	le := binary.LittleEndian
	out := append(le.AppendUint32(nil, uint32(len(payload))), kind)
	out = append(out, payload...)
	return le.AppendUint32(out, frame.Checksum(out[4:]))
}

// retiredPutFrame is a put frame of a retired kind for a 512-byte body:
// kind 1 as the file-per-blob layout wrote it (a SHA-256, no extent), or
// kind 3 as the SHA-256-checked segments did (the sum, then the head of
// segment 0).
func retiredPutFrame(kind byte, url string) []byte {
	le := binary.LittleEndian
	p := append(le.AppendUint32(nil, uint32(len(url))), url...)
	for _, v := range []uint64{512, 0, 1, 2, 3} { // size, expires, entered, last hit, hits
		p = le.AppendUint64(p, v)
	}
	p = append(p, make([]byte, 32)...)
	if kind == 3 {
		p = le.AppendUint64(le.AppendUint32(p, 0), 0)
	}
	return rawFrame(kind, p)
}

// goldenLog is the index log of Admit a (300 bytes), Remove a, Admit a
// (500 bytes) on a fresh store, byte for byte: a put frame (kind 4) ending
// in the body's CRC32C u32, segment u32 and offset i64, a del frame (kind
// 2), a put frame whose extent starts where the first body ended.
const goldenLog = "" +
	"4b000000040f000000687474703a2f2f676f6c64656e2f612c01000000000000" +
	"000000000000000000b8b8fdc59997170058712e0c9d97170200000000000000" +
	"019eac3f000000000000000000000000bde69d9f13000000020f000000687474" +
	"703a2f2f676f6c64656e2f611c3ac58a4b000000040f000000687474703a2f2f" +
	"676f6c64656e2f61f4010000000000000000000000000000001000f6d3999717" +
	"00b0b8261a9d97170300000000000000cf893a4f000000002c01000000000000" +
	"407e4149"

func TestIndexLogGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	a1 := admit(t, s, "http://golden/a", 300, 1)
	s.Remove("http://golden/a")
	a2 := admit(t, s, "http://golden/a", 500, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("index.log differs from the golden:\n got %x\nwant %x", got, want)
	}
	recs, valid, damage := ReplayIndex(want)
	if damage != nil || valid != len(want) || len(recs) != 3 {
		t.Fatalf("golden replays to %d records over %d of %d bytes: %v", len(recs), valid, len(want), damage)
	}
	del := IndexRecord{Del: true, Entry: cache.DiskEntry{Doc: cache.Document{URL: "http://golden/a"}}}
	for i, r := range []IndexRecord{{Entry: a1, at: extent{0, 0}}, del, {Entry: a2, at: extent{0, 300}}} {
		if recs[i] != r {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], r)
		}
	}
	body, err := os.ReadFile(segPath(dir, 0))
	if err != nil || len(body) != 800 {
		t.Fatalf("segment 0 is %d bytes, want both bodies, 800 (%v)", len(body), err)
	}
}

// TestIndexExpirySlotIsSkipped: a put frame keeps the 8-byte slot after
// the size where a document expiry used to be. The store writes it zero
// and never reads it: a put frame holding a deadline there replays
// exactly as the golden's.
func TestIndexExpirySlotIsSkipped(t *testing.T) {
	golden, err := hex.DecodeString(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	old := bytes.Clone(golden)
	slot := 4 + 1 + 4 + len("http://golden/a") + 8 // length, kind, url, size
	if le.Uint64(old[slot:]) != 0 {
		t.Fatal("golden put frame has a non-zero expiry slot")
	}
	le.PutUint64(old[slot:], 1_700_003_600_000_000_000)
	end := 4 + 1 + int(le.Uint32(old))
	le.PutUint32(old[end:], frame.Checksum(old[4:end]))
	got, valid, damage := ReplayIndex(old)
	want, _, _ := ReplayIndex(golden)
	if damage != nil || valid != len(old) || len(got) != len(want) {
		t.Fatalf("old log replays to %d records over %d of %d bytes: %v", len(got), valid, len(old), damage)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzReplayIndex: the index decoder never panics, never claims more than
// it was given, accepts only what the encoder produces byte for byte, and
// stops at a frame of either retired put kind as it stops at any damage.
func FuzzReplayIndex(f *testing.F) {
	golden, err := hex.DecodeString(goldenLog)
	if err != nil {
		f.Fatal(err)
	}
	put := golden[:frame.Overhead+binary.LittleEndian.Uint32(golden)] // the first put frame
	f.Add(golden)
	f.Add(golden[:len(golden)-5]) // torn tail
	f.Add(bytes.Clone(put))
	f.Add(append(bytes.Clone(put), retiredPutFrame(1, "http://old/a")...))
	f.Add(append(bytes.Clone(put), retiredPutFrame(3, "http://old/a")...))
	f.Add(rawFrame(iPut, []byte{1, 0, 0, 0, 'u'}))
	f.Add(rawFrame(iDel, nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, valid, damage := ReplayIndex(raw)
		if valid < 0 || valid > len(raw) || (damage == nil) != (valid == len(raw)) {
			t.Fatalf("valid %d of %d bytes, damage %v", valid, len(raw), damage)
		}
		var again []byte
		for _, r := range recs {
			again = appendIndexRecord(again, r)
		}
		if !bytes.Equal(again, raw[:valid]) {
			t.Fatalf("accepted records re-encode to\n%x\nnot the accepted prefix\n%x", again, raw[:valid])
		}
		// Whatever followed the accepted prefix, a well-formed frame of
		// a retired kind in its place stops replay there, good frames
		// behind it or not.
		for _, kind := range []byte{1, 3} {
			old := append(append(raw[:valid:valid], rawFrame(kind, raw[valid:min(len(raw), valid+200)])...), golden...)
			recs2, valid2, damage2 := ReplayIndex(old)
			if len(recs2) != len(recs) || valid2 != valid || damage2 == nil {
				t.Fatalf("kind-%d frame: %d records over %d bytes (%v), want %d over %d and damage", kind, len(recs2), valid2, damage2, len(recs), valid)
			}
		}
	})
}
