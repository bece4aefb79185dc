// Segments: the append-only files bodies live in. An admission reserves
// an extent at the active segment's tail, writes the body there and
// commits it with a put frame; a read is a pread on the open descriptor;
// a removal is a del frame and the extent turning dead. Bytes are never
// overwritten, and recovery starts a fresh segment, so a torn body at an
// old tail is dead space nothing parses. Dead space goes when its segment
// does: a sealed segment with nothing live is unlinked, and one with
// little live is compacted once dead bytes pass half the capacity.
package blob

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// extent locates a body: segment id and byte offset (the length is the
// entry's size).
type extent struct {
	seg uint32
	off int64
}

// blobRef is one distinct body: where it lies and how many URLs share it.
type blobRef struct {
	at   extent
	refs int
}

// segment is one body file. Everything but f is guarded by Store.mu; f is
// read and written at explicit offsets, with the lock released.
type segment struct {
	id    uint32
	f     *os.File
	size  int64 // bytes reserved so far: the append offset
	live  int64 // bytes of committed extents an entry still references
	pins  int   // readers and writers in flight: a pinned segment stays
	dirty bool  // holds a committed extent written since the last Sync
}

// segPath names segment id's file.
func segPath(dir string, id uint32) string {
	return filepath.Join(dir, "seg", strconv.FormatUint(uint64(id), 10))
}

// reserveLocked hands out [off, off+size) at the active segment's tail,
// dead until committed. Past the nominal segment size it rolls to a fresh
// segment first, so a body larger than that gets one of its own.
func (s *Store) reserveLocked(size int64) (*segment, int64, error) {
	if a := s.active; a == nil || a.size > 0 && a.size+size > s.segSize {
		f, err := os.OpenFile(segPath(s.dir, s.nextSeg), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, 0, fmt.Errorf("blob: segment: %w", err)
		}
		s.active = &segment{id: s.nextSeg, f: f}
		s.segs[s.nextSeg] = s.active
		s.nextSeg++
		if a != nil {
			s.retireLocked(a) // sealed now
		}
	}
	s.active.size += size
	s.dead += size
	return s.active, s.active.size - size, nil
}

// commitLocked turns a reserved and written extent live.
func (s *Store) commitLocked(seg *segment, size int64) {
	seg.live += size
	seg.dirty = true
	s.dead -= size
}

// unpinLocked ends one reader's or writer's hold on seg.
func (s *Store) unpinLocked(seg *segment) {
	seg.pins--
	s.retireLocked(seg)
}

// retireLocked unlinks seg once it is sealed, holds nothing live and
// nobody reads or writes it (a second call for the same segment is inert).
func (s *Store) retireLocked(seg *segment) {
	if seg == s.active || seg.live > 0 || seg.pins > 0 || s.closed || s.segs[seg.id] != seg {
		return
	}
	seg.f.Close()
	os.Remove(segPath(s.dir, seg.id))
	delete(s.segs, seg.id)
	s.dead -= seg.size
}

// reclaimLocked holds dead bytes to half the capacity by compacting the
// sealed, unpinned segment with the fewest live bytes — inline and
// amortised, as appendLocked compacts the index. Segment bytes therefore
// stay within 1.5 x capacity plus the active segment and the one being
// compacted (and whatever readers pin).
func (s *Store) reclaimLocked() {
	for !s.closed && s.dead > s.capacity/2 {
		var v *segment
		for _, seg := range s.segs {
			if seg != s.active && seg.pins == 0 && seg.size > seg.live &&
				(v == nil || seg.live < v.live || seg.live == v.live && seg.id < v.id) {
				v = seg
			}
		}
		if v == nil || s.compactSegmentLocked(v) != nil {
			return
		}
	}
}

// compactSegmentLocked re-appends v's live extents to the active segment
// and unlinks v. Each body is verified as it is copied; a corrupt one is
// dropped and counted. Every entry of a moved body gets a put frame with
// the new extent before v goes, so a crash in between leaves each entry
// pointing at bytes that exist: the old copy or the new one.
func (s *Store) compactSegmentLocked(v *segment) error {
	st := stagers.Get().(*stager)
	defer stagers.Put(st)
	for d := s.lru.prev; d != &s.lru; {
		cur := d
		d = d.prev
		if cur.at.seg != v.id {
			continue
		}
		b, size := s.blobs[cur.e.Sum], cur.e.Doc.Size
		if b.at.seg == v.id { // first entry met for this body: move it
			seg, off, err := s.reserveLocked(size)
			if err != nil {
				return err
			}
			sum, err := st.copy(seg.f, off, io.NewSectionReader(v.f, b.at.off, size), size)
			if errors.Is(err, io.ErrUnexpectedEOF) || err == nil && sum != cur.e.Sum {
				s.checksumFailures.Add(1)
				s.dropLocked(cur)
				continue
			}
			if err != nil {
				return err
			}
			s.commitLocked(seg, size)
			v.live -= size
			s.dead += size
			b.at = extent{seg: seg.id, off: off}
			s.blobs[cur.e.Sum] = b
		}
		cur.at = b.at
		if err := s.appendLocked(IndexRecord{Entry: cur.e, at: cur.at}); err != nil {
			return err
		}
	}
	s.retireLocked(v)
	return nil
}

// syncLocked fsyncs the segments written since the last Sync, then the
// index: a frame that survives a power cut has its body beneath it.
func (s *Store) syncLocked() error {
	for _, seg := range s.segs {
		if seg.dirty {
			if err := seg.f.Sync(); err != nil {
				return fmt.Errorf("blob: sync segment: %w", err)
			}
			seg.dirty = false
		}
	}
	if err := s.index.Sync(); err != nil {
		return fmt.Errorf("blob: sync index: %w", err)
	}
	return nil
}

// openSegments opens every segment under seg/ (one fstat each for its
// length); names that are not a segment's are not ours to touch.
func (s *Store) openSegments() error {
	names, err := os.ReadDir(filepath.Join(s.dir, "seg"))
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	for _, n := range names {
		id, err := strconv.ParseUint(n.Name(), 10, 32)
		if err != nil || filepath.Base(segPath(s.dir, uint32(id))) != n.Name() {
			continue
		}
		f, err := os.Open(segPath(s.dir, uint32(id)))
		if err != nil {
			return fmt.Errorf("blob: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("blob: %w", err)
		}
		s.segs[uint32(id)] = &segment{id: uint32(id), f: f, size: fi.Size()}
		s.nextSeg = max(s.nextSeg, uint32(id)+1)
	}
	return nil
}
