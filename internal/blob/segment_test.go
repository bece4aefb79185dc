package blob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/dist"
)

// crash copies dir as a kill -9 would leave it: the segments (hardlinked)
// and the first indexBytes bytes of the index log (all of it if negative).
func crash(t *testing.T, dir string, indexBytes int) string {
	t.Helper()
	sub := t.TempDir()
	linkSegments(t, dir, sub)
	raw, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	if indexBytes >= 0 {
		raw = raw[:indexBytes]
	}
	if err := os.WriteFile(filepath.Join(sub, "index.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return sub
}

// residency is what a store holds, keyed by URL.
func residency(s *Store) map[string]cache.DiskEntry {
	out := make(map[string]cache.DiskEntry)
	for _, url := range s.URLs() {
		out[url], _ = s.Peek(url)
	}
	return out
}

// sameResidency fails unless s holds exactly want, every body intact.
func sameResidency(t *testing.T, what string, s *Store, want map[string]cache.DiskEntry) {
	t.Helper()
	got := residency(s)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for url, e := range want {
		if got[url] != e {
			t.Fatalf("%s: %s = %+v, want %+v", what, url, got[url], e)
		}
		if b, _, err := readAll(t, s, url); err != nil || !bytes.Equal(b, body(url, e.Doc.Size)) {
			t.Fatalf("%s: %s reads back wrong (%v)", what, url, err)
		}
	}
}

// TestKillBetweenBodyAndFrame: a node killed after the body's WriteAt but
// before its put frame leaves an extent nothing references. Recovery
// resurrects nothing from it, and a segment holding nothing else is swept.
func TestKillBetweenBodyAndFrame(t *testing.T) {
	for _, alone := range []bool{false, true} {
		dir := t.TempDir()
		s := openStore(t, dir, 1<<20)
		if !alone {
			admit(t, s, "http://half/kept", 300, 0)
		}
		want := residency(s)
		if _, seg, _, err := s.stageBody(bytes.NewReader(body("http://half/torn", 5000)), 5000); err != nil || seg == nil {
			t.Fatal(err)
		}
		sub := crash(t, dir, -1)
		s.Close()

		s2 := openStore(t, sub, 1<<20)
		sameResidency(t, fmt.Sprintf("alone=%v", alone), s2, want)
		rep := s2.Report()
		if rep.LostBlobs != 0 || rep.TruncatedBytes != 0 || (rep.Orphans == 1) != alone {
			t.Fatalf("alone=%v: report %+v", alone, rep)
		}
		if left, _ := os.ReadDir(filepath.Join(sub, "seg")); (len(left) == 0) != alone {
			t.Fatalf("alone=%v: seg/ holds %d files after recovery", alone, len(left))
		}
		// The torn extent is dead space in a sealed segment: the next
		// admission goes to a fresh one.
		admit(t, s2, "http://half/next", 200, 1)
		if path, off := where(t, s2, "http://half/next"); off != 0 || path == segPath(sub, 0) {
			t.Fatalf("post-crash admission landed at %s@%d, want the head of a fresh segment", path, off)
		}
		s2.Close()
	}
}

// TestExtentPastSegmentEOF: a put frame whose extent ends beyond its
// segment (the frame reached the disk, the body did not, or the segment
// is gone altogether) is counted lost at recovery, not trusted.
func TestExtentPastSegmentEOF(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	admit(t, s, "http://eof/a", 400, 0)
	admit(t, s, "http://eof/b", 400, 1)
	big := admit(t, s, "http://eof/big", 100_000, 2) // rolls to a segment of its own
	pathB, offB := where(t, s, "http://eof/b")
	pathBig, _ := where(t, s, "http://eof/big")
	want := residency(s)
	s.Close()
	if pathBig == pathB || big.Doc.Size <= s.segSize {
		t.Fatalf("the large body shares %s", pathB)
	}
	if err := os.Truncate(pathB, offB+399); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(pathBig); err != nil {
		t.Fatal(err)
	}
	delete(want, "http://eof/b")
	delete(want, "http://eof/big")

	s2 := openStore(t, dir, 1<<20)
	defer s2.Close()
	if rep := s2.Report(); rep.LostBlobs != 2 || rep.Entries != 1 {
		t.Fatalf("report %+v, want 2 lost and 1 kept", rep)
	}
	sameResidency(t, "after truncation", s2, want)
	if v := s2.VerifyAll(); v.Failed != 0 || s2.ChecksumFailures() != 0 {
		t.Fatalf("verify %+v, %d checksum failures", v, s2.ChecksumFailures())
	}
}

// churnUntil runs one store operation at a time — filler admitted and
// removed again, every eighth body kept so that later segments are sealed
// with something live in them and stay — until done reports true after
// one. before runs ahead of every operation.
func churnUntil(t *testing.T, s *Store, before func(), done func() bool) {
	t.Helper()
	for i := 0; i < 400; i++ {
		url := fmt.Sprintf("http://churn/filler%d", i)
		ops := []func(){func() { admit(t, s, url, 8000, 10+i) }, func() { s.Remove(url) }}
		if i%8 == 7 {
			ops = ops[:1]
		}
		for _, op := range ops {
			before()
			if op(); done() {
				return
			}
		}
	}
	t.Fatal("dead bytes never reclaimed")
}

// TestSegmentCompaction: dead bytes past half the capacity are reclaimed
// by re-appending the live extents of the cheapest sealed segment. Then
// the crash matrix: the node is killed after every index frame the
// compacting operation wrote, with the victim segment still on disk as
// the kill would leave it. No entry may be lost or duplicated, each keeps
// an extent of its own, and a segment recovery no longer references is
// swept.
func TestSegmentCompaction(t *testing.T) {
	const capacity = 256 << 10 // 64 KB segments, reclaim past 128 KB dead
	dir := t.TempDir()
	s := openStore(t, dir, capacity)
	// Segment 0 gets two survivors with equal bodies and one with another;
	// the churn buries them in dead filler.
	now := t0()
	for _, url := range []string{"http://cmp/twin1", "http://cmp/twin2"} {
		if _, _, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: url, Size: 3000}, LastHit: now},
			bytes.NewReader(make([]byte, 3000)), now); err != nil {
			t.Fatal(err)
		}
	}
	solo := admit(t, s, "http://cmp/solo", 2000, 1)
	victim, _ := where(t, s, "http://cmp/solo")
	snapshot := t.TempDir() // keeps the victim's inode alive past its unlink
	var before []byte       // the log as it stood ahead of the compacting operation
	churnUntil(t, s, func() {
		linkSegments(t, dir, snapshot)
		var err error
		if before, err = os.ReadFile(filepath.Join(dir, "index.log")); err != nil {
			t.Fatal(err)
		}
	}, func() bool {
		_, err := os.Stat(victim)
		return err != nil
	})
	if _, dead := liveBytes(s); dead > capacity/2 {
		t.Fatalf("%d dead bytes left, bound %d", dead, capacity/2)
	}
	if got, _, err := readAll(t, s, "http://cmp/solo"); err != nil || !bytes.Equal(got, body("http://cmp/solo", 2000)) {
		t.Fatalf("moved body reads back wrong: %v", err)
	}
	if e, ok := s.Peek("http://cmp/solo"); !ok || e != solo {
		t.Fatalf("moved entry %+v, want %+v", e, solo)
	}
	if p1, o1 := where(t, s, "http://cmp/twin1"); p1 == victim {
		t.Fatal("survivor still in the unlinked segment")
	} else if p2, o2 := where(t, s, "http://cmp/twin2"); p1 == p2 && o1 == o2 {
		t.Fatal("equal bodies moved into one extent")
	}
	linkSegments(t, dir, snapshot)
	after, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(after) < len(before) || !bytes.Equal(after[:len(before)], before) {
		t.Fatal("index log rewritten during the run; the crash matrix needs its frames")
	}
	recs, _, damage := ReplayIndex(after[len(before):])
	if damage != nil || len(recs) != 4 {
		t.Fatalf("compacting operation wrote %d frames (%v), want a del and three re-puts", len(recs), damage)
	}

	cut := len(before)
	for i := 0; i <= len(recs); i++ {
		what := fmt.Sprintf("killed after frame %d of %d", i, len(recs))
		sub := t.TempDir()
		linkSegments(t, snapshot, sub)
		if err := os.WriteFile(filepath.Join(sub, "index.log"), after[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// What the committed prefix says is resident, and how many bytes
		// it takes.
		prefix, _, _ := ReplayIndex(after[:cut])
		want := make(map[string]cache.DiskEntry)
		for _, r := range prefix {
			if delete(want, r.Entry.Doc.URL); !r.Del {
				want[r.Entry.Doc.URL] = r.Entry
			}
		}
		var wantLive int64
		for _, e := range want {
			wantLive += e.Doc.Size
		}

		s2 := openStore(t, sub, capacity)
		got := residency(s2)
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
		}
		for url, e := range want {
			if got[url] != e {
				t.Fatalf("%s: %s = %+v, want %+v", what, url, got[url], e)
			}
		}
		if rep := s2.Report(); rep.LostBlobs != 0 || rep.TruncatedBytes != 0 {
			t.Fatalf("%s: %+v", what, rep)
		}
		if v := s2.VerifyAll(); v.Failed != 0 {
			t.Fatalf("%s: %+v", what, v)
		}
		if live, _ := liveBytes(s2); live != wantLive || s2.Used() != wantLive {
			t.Fatalf("%s: %d live bytes, %d used, want %d", what, live, s2.Used(), wantLive)
		}
		// Every segment kept holds something live, the directory holds
		// nothing else, and a second restart agrees with the first.
		s2.mu.Lock()
		kept := len(s2.segs)
		for _, seg := range s2.segs {
			if seg.live == 0 {
				t.Errorf("%s: segment %d kept with nothing live", what, seg.id)
			}
		}
		s2.mu.Unlock()
		if files, _ := os.ReadDir(filepath.Join(sub, "seg")); len(files) != kept {
			t.Fatalf("%s: seg/ holds %d files for %d segments", what, len(files), kept)
		}
		s2.Close()
		s3 := openStore(t, sub, capacity)
		if rep := s3.Report(); rep.LostBlobs != 0 || rep.Orphans != 0 || rep.Entries != len(want) {
			t.Fatalf("%s: second restart %+v", what, rep)
		}
		s3.Close()
		if i < len(recs) {
			cut += len(appendIndexRecord(nil, recs[i]))
		}
	}
}

// TestCorruptExtentDroppedByCompaction: a body that no longer matches its
// checksum is not carried forward: compaction drops and counts it.
func TestCorruptExtentDroppedByCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 256<<10)
	defer s.Close()
	admit(t, s, "http://rot/bad", 2000, 0)
	admit(t, s, "http://rot/good", 2000, 1)
	path, off := where(t, s, "http://rot/bad")
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, off+7); err != nil {
		t.Fatal(err)
	}
	f.Close()
	churnUntil(t, s, func() {}, func() bool { return s.ChecksumFailures() > 0 })
	if s.ChecksumFailures() != 1 || s.Contains("http://rot/bad") {
		t.Fatalf("%d checksum failures, bad resident: %v", s.ChecksumFailures(), s.Contains("http://rot/bad"))
	}
	if b, _, err := readAll(t, s, "http://rot/good"); err != nil || !bytes.Equal(b, body("http://rot/good", 2000)) {
		t.Fatalf("neighbour of the corrupt extent: %v", err)
	}
	if p, _ := where(t, s, "http://rot/good"); p == path {
		t.Fatal("neighbour not moved")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("compacted segment still there: %v", err)
	}
}

// TestCloseWithReaderOpen: Close does not wait for readers. One that is
// still open finishes from what it already has or gets fs.ErrClosed —
// never other bytes, and never a checksum failure.
func TestCloseWithReaderOpen(t *testing.T) {
	s := openStore(t, t.TempDir(), 1<<20)
	const url, size = "http://closing/x", 100_000
	admit(t, s, url, size, 0)
	_, rc, ok := s.Open(url)
	if !ok {
		t.Fatal("not resident")
	}
	head := make([]byte, 1000)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(rc)
	if err == nil {
		if !bytes.Equal(append(head, rest...), body(url, size)) {
			t.Fatal("reader finished with the wrong bytes")
		}
	} else if !errors.Is(err, fs.ErrClosed) || !bytes.Equal(append(head, rest...), body(url, size)[:len(head)+len(rest)]) {
		t.Fatalf("reader across Close: %v after %d bytes", err, len(head)+len(rest))
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("reader Close after store Close: %v", err)
	}
	if s.ChecksumFailures() != 0 {
		t.Fatal("a closed descriptor was counted as corruption")
	}
}

// TestLegacyLayoutOpensCold: an index written by an earlier layout — the
// file-per-blob one (kind-1 put frames), or segments checked by SHA-256
// (kind-3 put frames) — is a cache nobody can read any more. It opens as
// an empty tier, the index rewritten empty and every segment swept as an
// orphan, with no checksum failure counted, and works from there.
func TestLegacyLayoutOpensCold(t *testing.T) {
	for _, tc := range []struct {
		kind byte
		segs int // segment files the layout left under seg/
	}{{1, 0}, {3, 2}} {
		t.Run(fmt.Sprintf("kind_%d", tc.kind), func(t *testing.T) {
			dir := t.TempDir()
			old := append(retiredPutFrame(tc.kind, "http://old/a"), retiredPutFrame(tc.kind, "http://old/b")...)
			if err := os.WriteFile(filepath.Join(dir, "index.log"), old, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(dir, "seg"), 0o755); err != nil {
				t.Fatal(err)
			}
			for id := 0; id < tc.segs; id++ {
				if err := os.WriteFile(segPath(dir, uint32(id)), make([]byte, 512), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s := openStore(t, dir, 1<<20)
			rep := s.Report()
			if s.Len() != 0 || rep.TruncatedBytes != int64(len(old)) || rep.IndexRecords != 0 || !rep.Compacted ||
				rep.Orphans != tc.segs || s.ChecksumFailures() != 0 {
				t.Fatalf("len %d, report %+v, %d checksum failures", s.Len(), rep, s.ChecksumFailures())
			}
			if left, _ := os.ReadDir(filepath.Join(dir, "seg")); len(left) != 0 {
				t.Fatalf("seg/ holds %d files after opening", len(left))
			}
			want := admit(t, s, "http://new/a", 500, 0)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openStore(t, dir, 1<<20)
			defer s.Close()
			if rep := s.Report(); rep.TruncatedBytes != 0 || rep.Entries != 1 {
				t.Fatalf("second open: %+v", rep)
			}
			sameResidency(t, "second open", s, map[string]cache.DiskEntry{want.Doc.URL: want})
		})
	}
}

// dirState maps every name under dir to its file info.
func dirState(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	out := make(map[string]os.FileInfo)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil {
			out[path], err = d.Info()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWarmRoundTripTouchesNoPath: on a warm store a tier round trip —
// Admit, Open, drain, Close, Remove — creates, renames and unlinks
// nothing: the names under Dir, and the files behind them, are the same
// after a thousand of them. (strace is not available here; the directory
// is the witness.) Warm means a resident population, which also keeps the
// index log's own compaction, a rename, out of the picture.
func TestWarmRoundTripTouchesNoPath(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 64<<20) // 2 MB segments: 1300 x 1 KB fit one
	defer s.Close()
	for i := 0; i < 300; i++ {
		admit(t, s, fmt.Sprintf("http://warm/resident%d", i), 1024, i)
	}
	before := dirState(t, dir)
	if len(before) != 4 { // dir, index.log, seg/, seg/0
		t.Fatalf("warm store holds %v", before)
	}
	for i := 0; i < 1000; i++ {
		url := fmt.Sprintf("http://warm/%d", i)
		admit(t, s, url, 1024, 300+i)
		if b, _, err := readAll(t, s, url); err != nil || !bytes.Equal(b, body(url, 1024)) {
			t.Fatalf("%s: %v", url, err)
		}
		if _, ok := s.Remove(url); !ok {
			t.Fatalf("%s not resident", url)
		}
	}
	after := dirState(t, dir)
	for path, fi := range after {
		if was, ok := before[path]; !ok || !os.SameFile(was, fi) {
			t.Fatalf("%s was created or replaced", path)
		}
	}
	if len(after) != len(before) {
		t.Fatalf("directory went from %d names to %d", len(before), len(after))
	}
}

// TestSegmentSpaceBound churns a full tier for 50 x Capacity of admitted
// bytes — Pareto sizes, random removals, re-admissions over live entries —
// and holds the layout to its stated space bound at every step: segment
// bytes <= 1.5 x Capacity + 2 segments (the active one and the one being
// compacted; a segment is the nominal size or the largest body). What the
// bound costs in writes is logged beside it, so that a change which trades
// one of allocation, write or space cost for another shows all three.
func TestSegmentSpaceBound(t *testing.T) {
	const capacity, maxBody = 1 << 20, 48 << 10
	churn := int64(50 * capacity)
	if testing.Short() {
		churn /= 5
	}
	dir := t.TempDir()
	s := openStore(t, dir, capacity)
	defer s.Close()
	bound := int64(capacity + capacity/2 + 2*max(s.segSize, maxBody))
	sizes, err := dist.ParetoWithMean(4096, maxBody, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(21)
	buf := make([]byte, maxBody)
	src := bytes.NewReader(nil)
	var admitted, peakSeg, peakDir int64
	grown := make(map[uint32]int64) // every segment ever made -> bytes appended
	for step := 0; admitted < churn; step++ {
		url := fmt.Sprintf("http://churn/%d", rng.Intn(500))
		if rng.Intn(10) < 3 {
			s.Remove(url)
		} else {
			size := int64(sizes.Sample(rng))
			for i := 0; i < 8; i++ { // distinct bodies
				buf[i] = byte(step >> (8 * i))
			}
			src.Reset(buf[:size])
			now := t0().Add(time.Duration(step) * time.Second)
			if _, _, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: url, Size: size}, LastHit: now}, src, now); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			admitted += size
		}
		s.mu.Lock()
		var segBytes int64
		for id, seg := range s.segs {
			segBytes += seg.size
			grown[id] = seg.size
		}
		used, dead := s.used, s.dead
		s.mu.Unlock()
		peakSeg = max(peakSeg, segBytes)
		if used > capacity || segBytes > bound || dead > capacity/2+s.segSize {
			t.Fatalf("step %d: used %d (capacity %d), segment bytes %d (bound %d), dead %d", step, used, capacity, segBytes, bound, dead)
		}
		if step%64 == 0 { // the directory agrees with the bookkeeping
			var onDisk int64
			files, err := os.ReadDir(filepath.Join(dir, "seg"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if fi, err := f.Info(); err == nil {
					onDisk += fi.Size()
				}
			}
			if onDisk > segBytes {
				t.Fatalf("step %d: seg/ holds %d bytes, the store accounts for %d", step, onDisk, segBytes)
			}
			peakDir = max(peakDir, onDisk)
		}
	}
	if v := s.VerifyAll(); v.Failed != 0 || s.ChecksumFailures() != 0 {
		t.Fatalf("verify %+v, %d checksum failures", v, s.ChecksumFailures())
	}
	var appended int64
	for _, n := range grown {
		appended += n
	}
	t.Logf("admitted %d bytes into a %d-byte tier (%d segments made, nominal %d bytes)", admitted, capacity, len(grown), s.segSize)
	t.Logf("write cost: %.4f bytes rewritten by compaction per admitted byte (%d of %d)", float64(appended-admitted)/float64(admitted), appended-admitted, admitted)
	t.Logf("space cost: peak %.3f segment bytes per byte of capacity (seg/ on disk peaked at %.3f; bound %.3f)",
		float64(peakSeg)/capacity, float64(peakDir)/capacity, float64(bound)/capacity)
}
