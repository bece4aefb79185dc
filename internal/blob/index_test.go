package blob

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"eacache/internal/cache"
)

// frame builds an index frame of any kind around payload, CRC and all.
func frame(kind byte, payload []byte) []byte {
	le := binary.LittleEndian
	out := append(le.AppendUint32(nil, uint32(len(payload))), kind)
	out = append(out, payload...)
	return le.AppendUint32(out, crc32.Checksum(out[4:], crcTable))
}

// retiredPutFrame is a put frame as the file-per-blob layout wrote it:
// kind 1, no extent.
func retiredPutFrame(url string) []byte {
	le := binary.LittleEndian
	p := append(le.AppendUint32(nil, uint32(len(url))), url...)
	for _, v := range []uint64{512, 0, 1, 2, 3} { // size, expires, entered, last hit, hits
		p = le.AppendUint64(p, v)
	}
	return frame(1, append(p, make([]byte, 32)...))
}

// goldenLog is the index log of Admit a (300 bytes), Remove a, Admit a
// (500 bytes) on a fresh store, byte for byte: a put frame (kind 3) ending
// in segment u32 and offset i64, a del frame (kind 2), a put frame whose
// extent starts where the first body ended.
const goldenLog = "" +
	"67000000030f000000687474703a2f2f676f6c64656e2f612c01000000000000" +
	"000000000000000000b8b8fdc59997170058712e0c9d97170200000000000000" +
	"2bc3a2508737f823712efe12e3b58006038ab4d606e409952f43ad90a2ccaafa" +
	"0000000000000000000000007c0ef78713000000020f000000687474703a2f2f" +
	"676f6c64656e2f611c3ac58a67000000030f000000687474703a2f2f676f6c64" +
	"656e2f61f4010000000000000000000000000000001000f6d399971700b0b826" +
	"1a9d97170300000000000000254763f9fefa622bb58b4c702884f177b83fc10b" +
	"448fe1bcc12d800795b76b9f000000002c01000000000000195e35a9"

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

// FuzzReplayIndex: the index decoder never panics, never claims more than
// it was given, accepts only what the encoder produces byte for byte, and
// stops at a frame of the retired put kind as it stops at any damage.
func FuzzReplayIndex(f *testing.F) {
	golden, err := hex.DecodeString(goldenLog)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-5]) // torn tail
	f.Add(append(golden[:112:112], retiredPutFrame("http://old/a")...))
	f.Add(frame(iPut, []byte{1, 0, 0, 0, 'u'}))
	f.Add(frame(iDel, nil))
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
		// the retired kind in its place stops replay there, good frames
		// behind it or not.
		old := append(append(raw[:valid:valid], frame(1, raw[valid:min(len(raw), valid+200)])...), golden...)
		recs2, valid2, damage2 := ReplayIndex(old)
		if len(recs2) != len(recs) || valid2 != valid || damage2 == nil {
			t.Fatalf("retired-kind frame: %d records over %d bytes (%v), want %d over %d and damage", len(recs2), valid2, damage2, len(recs), valid)
		}
	})
}
