// Package blob is the content-addressed disk tier beneath the sharded
// memory cache: checksummed bodies in a few append-only segment files,
// indexed by an append-only CRC32C-framed log, with its own byte budget,
// LRU replacement and expiration-age tracker (the admission price the
// tier controller charges demotions — see internal/cache's TieredStore).
//
// Layout under Config.Dir:
//
//	index.log  append-only index (put/del frames; a put names its extent)
//	seg/<n>    body segments, appended to only, descriptors kept open
//
// segment.go has an extent's life cycle. Addressing by content hash means
// identical bodies share one extent: the refcounted index tracks how many
// URLs reference each sum and the bytes die only when the last reference
// goes. (The node's synthetic zero-filled bodies make this the common
// case — every same-sized body dedupes — so Used() accounts logical
// bytes, the sum of entry sizes, against Capacity.)
//
// Recovery mirrors internal/persist's posture: Open replays the longest
// verifiable index prefix (truncating a torn tail), then cross-checks
// every entry's extent against its segment's length — one fstat per
// segment, no bodies re-read, which is what makes a warm restart over a
// large tier take seconds. Full checksum verification is available
// separately through VerifyAll (the disk-smoke gate) and happens
// implicitly on every read: Verify(url) and Open(url)'s reader hash as they
// stream and fail at EOF on a mismatch, dropping the corrupt entry. A
// directory in the earlier file-per-blob layout opens as an empty tier.
package blob

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/cache"
)

var (
	// ErrChecksum reports a blob whose stored bytes no longer match its
	// content hash. The entry is dropped and the failure counted.
	ErrChecksum = errors.New("blob: checksum mismatch")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("blob: store closed")
	// ErrTooLarge reports a body bigger than the whole tier.
	ErrTooLarge = errors.New("blob: document larger than disk capacity")
)

// Config configures a Store.
type Config struct {
	// Dir is the tier's root directory; created if absent. Required.
	Dir string
	// Capacity is the byte budget (logical bytes: the sum of entry
	// sizes). Must be positive.
	Capacity int64
	// ExpirationWindow / ExpirationHorizon configure the tier's
	// expiration-age tracker, with cache.Config's semantics. The tracker
	// restarts cold after a crash (NoContention — an empty-looking disk
	// tier welcomes demotions until it evicts again), which is
	// conservative in the right direction.
	ExpirationWindow  int
	ExpirationHorizon time.Duration
}

// Report is the Open-time recovery accounting.
type Report struct {
	// Entries / Bytes are the recovered residency after reconciliation.
	Entries int
	Bytes   int64
	// IndexRecords is the number of valid frames replayed.
	IndexRecords int
	// TruncatedBytes is the torn tail cut from the index log.
	TruncatedBytes int64
	// LostBlobs counts index entries whose extent was not there: segment
	// missing, or shorter than the extent's end (dropped).
	LostBlobs int
	// Orphans counts segment files no index entry referenced (unlinked).
	Orphans int
	// Legacy counts the files of a file-per-blob layout swept from Dir.
	Legacy int
	// Compacted reports whether the index log was rewritten.
	Compacted bool
}

// VerifyReport is VerifyAll's accounting.
type VerifyReport struct {
	Verified int
	Failed   int
	// FailedURLs lists the dropped URLs (bounded by the store size).
	FailedURLs []string
}

// dentry is one resident document: its tier entry, where its body lies,
// and LRU links.
type dentry struct {
	e          cache.DiskEntry
	at         extent
	prev, next *dentry // LRU ring through Store.lru
}

// Store is the disk tier. All methods are safe for concurrent use; it
// implements cache.DiskTier.
type Store struct {
	dir      string
	capacity int64
	segSize  int64 // nominal segment size: the active segment rolls past it

	mu      sync.Mutex
	entries map[string]*dentry
	free    []*dentry // zeroed dentries of dropped entries, for the next insert
	blobs   map[[32]byte]blobRef
	lru     dentry // ring sentinel: next = most recent, prev = victim
	used    int64
	ages    *cache.ExpAgeTracker
	index   *os.File
	frame   []byte // scratch the one index frame being written is built in
	frames  int    // frames in the log since the last compaction
	segs    map[uint32]*segment
	active  *segment // takes reservations; nil until the first one
	nextSeg uint32
	dead    int64 // segment bytes no entry references, reservations in flight included
	closed  bool

	checksumFailures atomic.Int64
	report           Report
}

// Open opens (or initialises) the tier rooted at cfg.Dir, replaying and
// reconciling the index as described in the package comment.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("blob: Dir is required")
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("blob: capacity must be positive, got %d", cfg.Capacity)
	}
	if w, h := cfg.ExpirationWindow, cfg.ExpirationHorizon; w < 0 || h < 0 || w > 0 && h > 0 {
		return nil, fmt.Errorf("blob: expiration window and horizon must not be negative nor both set")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "seg"), 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	s := &Store{
		dir:      cfg.Dir,
		capacity: cfg.Capacity,
		segSize:  max(cfg.Capacity/32, 64<<10),
		entries:  make(map[string]*dentry),
		blobs:    make(map[[32]byte]blobRef),
		segs:     make(map[uint32]*segment),
		ages:     cache.NewExpAgeTracker(cfg.ExpirationWindow),
	}
	if cfg.ExpirationHorizon > 0 {
		s.ages = cache.NewTimeHorizonTracker(cfg.ExpirationHorizon)
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// indexPath returns the index log path.
func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.log") }

// recover replays the index log, reconciles it against the segments,
// reopens the log for appending (compacting it first when replay found
// it torn, garbage-heavy or split over two copies of one body) and sweeps
// the segments nothing references.
func (s *Store) recover() error {
	for _, sub := range []string{"blobs", "tmp"} { // the file-per-blob layout's
		filepath.WalkDir(filepath.Join(s.dir, sub), func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				s.report.Legacy++
			}
			return nil
		})
		os.RemoveAll(filepath.Join(s.dir, sub))
	}
	raw, err := os.ReadFile(s.indexPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("blob: read index: %w", err)
	}
	recs, valid, _ := ReplayIndex(raw)
	s.report.IndexRecords = len(recs)
	s.report.TruncatedBytes = int64(len(raw) - valid)

	// Fold the record stream into the final residency: each URL's last frame.
	folded := make(map[string]IndexRecord)
	for _, r := range recs {
		folded[r.Entry.Doc.URL] = r
	}

	if err := s.openSegments(); err != nil {
		return err
	}
	// Rebuild the LRU in recency order.
	puts := make([]IndexRecord, 0, len(folded))
	for _, r := range folded {
		if !r.Del {
			puts = append(puts, r)
		}
	}
	sort.Slice(puts, func(i, j int) bool {
		a, b := puts[i].Entry, puts[j].Entry
		return a.LastHit.Before(b.LastHit) || a.LastHit.Equal(b.LastHit) && a.Doc.URL < b.Doc.URL
	})
	split := false
	for _, r := range puts {
		// Cross-check the extent against its segment's length (bodies
		// are not read).
		if seg := s.segs[r.at.seg]; seg == nil || r.at.off > seg.size-r.Entry.Doc.Size {
			s.report.LostBlobs++
			continue
		}
		// A crash part-way through a segment compaction leaves a body's
		// entries split between its old extent and its new one; both hold
		// the same bytes, so all adopt the first and the index is
		// rewritten to say so before either segment can go.
		at, first := s.insertLocked(r.Entry, r.at)
		if first {
			s.segs[at.seg].live += r.Entry.Doc.Size
		}
		split = split || at != r.at
	}
	s.report.Entries = len(s.entries)
	s.report.Bytes = s.used

	// Reopen the log for appending; rewrite it first if replay carried a
	// torn tail, heavy garbage or a split body.
	garbage := s.report.IndexRecords - len(s.entries)
	if s.report.Compacted = s.report.TruncatedBytes > 0 || split || garbage > len(s.entries)+128; s.report.Compacted {
		err = s.compactLocked()
	} else {
		s.frames = s.report.IndexRecords
		s.index, err = os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return fmt.Errorf("blob: open index: %w", err)
	}

	// Every recovered segment is sealed (reservations go to a fresh one):
	// those with nothing live are crashed half-demotions and bodies whose
	// del frame landed, and go now.
	n := len(s.segs)
	for _, seg := range s.segs {
		s.dead += seg.size - seg.live
		s.retireLocked(seg)
	}
	s.report.Orphans = n - len(s.segs)
	return nil
}

// compactLocked rewrites the index log to one put frame per live entry
// (atomic temp+fsync+rename) and reopens it for appending. Caller holds
// mu or is the single-threaded recovery path.
func (s *Store) compactLocked() error {
	s.index.Close()
	tmp := s.indexPath() + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		w := bufio.NewWriter(f)
		// Oldest-first so a replay rebuilds the same LRU order.
		for d := s.lru.prev; d != &s.lru; d = d.prev {
			s.frame = appendIndexRecord(s.frame[:0], IndexRecord{Entry: d.e, at: d.at})
			w.Write(s.frame) // a failed write sticks: Flush reports it
		}
		if err = w.Flush(); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, s.indexPath())
	}
	if err == nil {
		s.index, err = os.OpenFile(s.indexPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return fmt.Errorf("blob: compact: %w", err)
	}
	s.frames = len(s.entries)
	return nil
}

// appendLocked writes one index frame, tracking garbage (frames the
// current residency no longer needs) and compacting when it dominates.
func (s *Store) appendLocked(r IndexRecord) error {
	s.frame = appendIndexRecord(s.frame[:0], r)
	if _, err := s.index.Write(s.frame); err != nil {
		return fmt.Errorf("blob: index append: %w", err)
	}
	s.frames++
	if garbage := s.frames - len(s.entries); garbage > 4*len(s.entries)+1024 {
		return s.compactLocked()
	}
	return nil
}

// insertLocked makes e resident as the most recently used entry. The
// first reference to a body takes at for its extent; later ones share
// the first's, which is returned.
func (s *Store) insertLocked(e cache.DiskEntry, at extent) (extent, bool) {
	b := s.blobs[e.Sum]
	first := b.refs == 0
	if first {
		b.at = at
	}
	b.refs++
	s.blobs[e.Sum] = b
	var d *dentry
	if n := len(s.free); n > 0 {
		d, s.free[n-1], s.free = s.free[n-1], nil, s.free[:n-1]
	} else {
		d = new(dentry)
	}
	*d = dentry{e: e, at: b.at, prev: &s.lru, next: s.lru.next}
	d.prev.next, d.next.prev = d, d
	s.entries[e.Doc.URL] = d
	s.used += e.Doc.Size
	return b.at, first
}

// dropLocked removes d's entry: index del frame, refcount decrement and
// the extent turning dead on last reference. d is zeroed and kept for the
// next insert while the free stack holds fewer than 64.
func (s *Store) dropLocked(d *dentry) error {
	delete(s.entries, d.e.Doc.URL)
	d.prev.next, d.next.prev = d.next, d.prev
	s.used -= d.e.Doc.Size
	if b := s.blobs[d.e.Sum]; b.refs > 1 {
		b.refs--
		s.blobs[d.e.Sum] = b
	} else { // last reference: the extent is dead space now
		delete(s.blobs, d.e.Sum)
		seg := s.segs[b.at.seg]
		seg.live -= d.e.Doc.Size
		s.dead += d.e.Doc.Size
		s.retireLocked(seg)
	}
	err := s.appendLocked(IndexRecord{Del: true, Entry: cache.DiskEntry{Doc: cache.Document{URL: d.e.Doc.URL}}})
	if *d = (dentry{}); len(s.free) < 64 {
		s.free = append(s.free, d)
	}
	return err
}

// Admit implements cache.DiskTier: store e's body, evicting LRU victims
// to make room, and return the entry with its checksum plus the
// evictions performed.
func (s *Store) Admit(e cache.DiskEntry, body io.Reader, now time.Time) (cache.DiskEntry, []cache.DiskEviction, error) {
	if e.Doc.URL == "" || e.Doc.Size < 0 {
		return e, nil, fmt.Errorf("blob: bad entry %q size %d", e.Doc.URL, e.Doc.Size)
	}
	if e.Doc.Size > s.capacity {
		return e, nil, ErrTooLarge
	}
	// Hash and write the body before any consideration of residency: the
	// sum decides whether the bytes stay live.
	sum, seg, off, err := s.stageBody(body, e.Doc.Size)
	if err != nil {
		return e, nil, err
	}
	e.Sum = sum
	if e.LastHit.IsZero() {
		e.LastHit = now
	}
	if e.EnteredAt.IsZero() {
		e.EnteredAt = now
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Unpinned only after the commit, or the extent could go with its
	// segment first; left uncommitted — refused, or the body is already
	// there — the extent is dead space, which may be due for reclaiming.
	defer s.reclaimLocked()
	defer s.unpinLocked(seg)
	if s.closed {
		return e, nil, ErrClosed
	}
	var evicted []cache.DiskEviction
	if old, ok := s.entries[e.Doc.URL]; ok {
		// Re-demotion over a live entry: replace silently.
		if err := s.dropLocked(old); err != nil {
			return e, nil, err
		}
	}
	for s.used+e.Doc.Size > s.capacity {
		v := s.lru.prev
		if v == &s.lru {
			return e, nil, fmt.Errorf("blob: cannot free %d bytes", e.Doc.Size)
		}
		age := max(now.Sub(v.e.LastHit), 0)
		ev := cache.DiskEviction{Entry: v.e, Age: age}
		if err := s.dropLocked(v); err != nil {
			return e, evicted, err
		}
		s.ages.Record(age, now)
		evicted = append(evicted, ev)
	}
	at, first := s.insertLocked(e, extent{seg: seg.id, off: off})
	if first { // the extent just written is the body
		s.commitLocked(seg, e.Doc.Size)
	}
	return e, evicted, s.appendLocked(IndexRecord{Entry: e, at: at})
}

// Open returns the entry plus a reader that verifies the checksum as it
// streams (failing at EOF on a mismatch and dropping the corrupt entry),
// for callers that want the bytes.
func (s *Store) Open(url string) (cache.DiskEntry, io.ReadCloser, bool) {
	r := new(verifyReader)
	if !s.open(url, r) {
		return cache.DiskEntry{}, nil, false
	}
	return r.e, r, true
}

// Verify implements cache.DiskTier: Open, drain and Close with the reader
// on this frame and the bytes discarded in its stager's buffer.
func (s *Store) Verify(url string) (cache.DiskEntry, bool, error) {
	var r verifyReader
	if !s.open(url, &r) {
		return cache.DiskEntry{}, false, nil
	}
	var err error
	for err == nil {
		_, err = r.Read(r.st.buf[:])
	}
	if cerr := r.Close(); err == io.EOF {
		err = cerr
	}
	return r.e, true, err
}

// open starts r on url's extent. The segment is pinned under the same lock
// that found the entry, so a reader never loses a race with Remove: the
// bytes stay where they are until it closes.
func (s *Store) open(url string, r *verifyReader) bool {
	s.mu.Lock()
	d, ok := s.entries[url]
	if !ok || s.closed {
		s.mu.Unlock()
		return false
	}
	*r = verifyReader{s: s, seg: s.segs[d.at.seg], off: d.at.off, e: d.e, remain: d.e.Doc.Size}
	r.seg.pins++
	s.mu.Unlock()
	r.st = stagers.Get().(*stager)
	r.st.h.Reset()
	return true
}

// dropCorrupt removes a failed entry and counts the checksum failure.
func (s *Store) dropCorrupt(url string, sum [32]byte) {
	s.checksumFailures.Add(1)
	s.mu.Lock()
	if d, ok := s.entries[url]; ok && d.e.Sum == sum && !s.closed {
		s.dropLocked(d)
		s.reclaimLocked()
	}
	s.mu.Unlock()
}

// verifyReader streams an extent while hashing it; EOF fails with
// ErrChecksum unless exactly the indexed bytes with the indexed sum were
// read. It owns its stager (Open's uses only the hash, Verify's the buffer
// too) and its pin on the segment from open to Close.
type verifyReader struct {
	s      *Store
	seg    *segment
	off    int64   // next byte to read
	remain int64   // bytes of the extent left
	st     *stager // nil once closed
	e      cache.DiskEntry
	failed bool
	done   bool
}

// Read implements io.Reader.
func (r *verifyReader) Read(p []byte) (int, error) {
	if r.st == nil {
		return 0, fs.ErrClosed
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.seg.f.ReadAt(p, r.off)
	r.st.h.Write(p[:n])
	r.off += int64(n)
	r.remain -= int64(n)
	if err == io.EOF {
		err = nil
	}
	if err != nil || r.remain > 0 && n == len(p) {
		return n, err
	}
	// The extent is drained, or its segment ended first: either the
	// indexed bytes with the indexed sum were read, or the blob is corrupt.
	if !r.done {
		r.done = true
		if r.failed = r.remain > 0 || r.st.sum() != r.e.Sum; r.failed {
			r.s.dropCorrupt(r.e.Doc.URL, r.e.Sum)
		}
	}
	if r.failed {
		return n, ErrChecksum
	}
	if n == 0 {
		err = io.EOF
	}
	return n, err
}

// Close implements io.Closer; a close before the verified EOF returns
// nil (partial reads cannot verify), after a failure it reports it.
func (r *verifyReader) Close() error {
	if r.st != nil {
		stagers.Put(r.st)
		r.st = nil
		r.s.mu.Lock()
		r.s.unpinLocked(r.seg)
		r.s.mu.Unlock()
	}
	if r.failed {
		return ErrChecksum
	}
	return nil
}

// Remove implements cache.DiskTier.
func (s *Store) Remove(url string) (cache.DiskEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.entries[url]
	if !ok || s.closed {
		return cache.DiskEntry{}, false
	}
	e := d.e
	s.dropLocked(d)
	s.reclaimLocked()
	return e, true
}

// Contains implements cache.DiskTier.
func (s *Store) Contains(url string) bool {
	_, ok := s.Peek(url)
	return ok
}

// Peek implements cache.DiskTier.
func (s *Store) Peek(url string) (e cache.DiskEntry, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.entries[url]; d != nil {
		return d.e, true
	}
	return e, false
}

// ExpirationAge implements cache.DiskTier: eq. 5 over the tier's own
// evictions — NoContention until the first one.
func (s *Store) ExpirationAge(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ages.WindowedAt(now)
}

// Len implements cache.DiskTier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Used implements cache.DiskTier (logical bytes; a shared extent counts
// once per referencing URL).
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity implements cache.DiskTier.
func (s *Store) Capacity() int64 { return s.capacity }

// URLs implements cache.DiskTier.
func (s *Store) URLs() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.entries))
	for u := range s.entries {
		out = append(out, u)
	}
	s.mu.Unlock()
	return out
}

// ChecksumFailures implements cache.DiskTier.
func (s *Store) ChecksumFailures() int64 { return s.checksumFailures.Load() }

// Report returns the Open-time recovery accounting.
func (s *Store) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// VerifyAll runs Verify over every entry — the full integrity pass the
// disk-smoke gate and the post-crash e2e run. Corrupt entries are dropped
// and counted; an entry gone since URLs() counts as failed.
func (s *Store) VerifyAll() VerifyReport {
	var rep VerifyReport
	for _, url := range s.URLs() {
		if _, ok, err := s.Verify(url); ok && err == nil {
			rep.Verified++
			continue
		}
		rep.Failed++
		rep.FailedURLs = append(rep.FailedURLs, url)
	}
	return rep
}

// Sync implements cache.DiskTier: fsync the segments written since the
// last Sync, then the index log.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

// Close implements cache.DiskTier: final fsync, then every descriptor is
// closed — a reader still open gets fs.ErrClosed from its next Read.
// Later calls on the store are inert.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked()
	s.closed = true
	for _, seg := range s.segs {
		seg.f.Close()
	}
	if cerr := s.index.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("blob: close: %w", cerr)
	}
	return err
}
