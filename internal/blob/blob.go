// Package blob is the content-addressed disk tier beneath the sharded
// memory cache: checksummed blob files in sharded fan-out directories,
// indexed by an append-only CRC32C-framed log, with its own byte budget,
// LRU replacement and expiration-age tracker (the admission price the
// tier controller charges demotions — see internal/cache's TieredStore).
//
// Layout under Config.Dir:
//
//	index.log            append-only index (put/del frames)
//	blobs/<hh>/<sha256>  body files, named by content hash, fanned out
//	                     by the first two hex digits
//	tmp/                 staging area for in-flight writes
//
// Addressing by content hash means identical bodies share one file: the
// refcounted index tracks how many URLs reference each sum and unlinks
// the file only when the last reference goes. (The node's synthetic
// zero-filled bodies make this the common case — every same-sized body
// dedupes — so Used() accounts logical bytes, the sum of entry sizes,
// against Capacity.)
//
// Recovery mirrors internal/persist's posture: Open replays the longest
// verifiable index prefix (truncating a torn tail), then cross-checks
// every entry against its blob file by presence and size — no bodies are
// re-read, which is what makes a warm restart over a large tier take
// seconds. Full checksum verification is available separately through
// VerifyAll (the disk-smoke gate) and happens implicitly on every read:
// Open(url) returns a reader that hashes as it streams and fails at EOF
// on a mismatch, dropping the corrupt entry.
package blob

import (
	"bufio"
	"encoding/hex"
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

// ErrChecksum reports a blob whose stored bytes no longer match its
// content hash. The entry is dropped and the failure counted.
var ErrChecksum = errors.New("blob: checksum mismatch")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("blob: store closed")

// ErrTooLarge reports a body bigger than the whole tier.
var ErrTooLarge = errors.New("blob: document larger than disk capacity")

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
	// LostBlobs counts index entries whose blob file was missing or had
	// the wrong size (dropped).
	LostBlobs int
	// Orphans counts blob files no index entry referenced (unlinked).
	Orphans int
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

// dentry is one resident document: its tier entry plus LRU links.
type dentry struct {
	e          cache.DiskEntry
	prev, next *dentry // LRU list: head = most recent, tail = victim
}

// Store is the disk tier. All methods are safe for concurrent use; it
// implements cache.DiskTier.
type Store struct {
	dir      string
	capacity int64

	mu         sync.Mutex
	entries    map[string]*dentry
	refs       map[[32]byte]int
	head, tail *dentry
	used       int64
	ages       *cache.ExpAgeTracker
	index      *os.File
	frame      []byte    // scratch the one index frame being written is built in
	frames     int       // frames in the log since the last compaction
	fanout     [256]bool // blobs/<hh> directories known to exist
	evictions  int64
	closed     bool

	tmpSeq           atomic.Uint64 // last tmp/admit-<n> name handed out
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
	if cfg.ExpirationWindow < 0 || cfg.ExpirationHorizon < 0 {
		return nil, fmt.Errorf("blob: negative expiration window/horizon")
	}
	if cfg.ExpirationWindow > 0 && cfg.ExpirationHorizon > 0 {
		return nil, fmt.Errorf("blob: expiration window and horizon are mutually exclusive")
	}
	for _, sub := range []string{"", "blobs", "tmp"} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("blob: %w", err)
		}
	}
	ages := cache.NewExpAgeTracker(cfg.ExpirationWindow)
	if cfg.ExpirationHorizon > 0 {
		ages = cache.NewTimeHorizonTracker(cfg.ExpirationHorizon)
	}
	s := &Store{
		dir:      cfg.Dir,
		capacity: cfg.Capacity,
		entries:  make(map[string]*dentry),
		refs:     make(map[[32]byte]int),
		ages:     ages,
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// indexPath returns the index log path.
func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.log") }

// sep is the path separator as a string, for paths built by append.
const sep = string(filepath.Separator)

// blobPath returns the fan-out path for a content sum, built in a stack
// buffer so the returned string is its only allocation.
func blobPath(dir string, sum [32]byte) string {
	var stack [192]byte
	b := append(append(stack[:0], dir...), sep+"blobs"+sep...)
	b = append(hex.AppendEncode(b, sum[:1]), sep...)
	return string(hex.AppendEncode(b, sum[:]))
}

// recover replays the index log, reconciles it against the blob files,
// sweeps orphans and reopens the log for appending (compacting it first
// when replay found it garbage-heavy).
func (s *Store) recover() error {
	raw, err := os.ReadFile(s.indexPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("blob: read index: %w", err)
	}
	recs, valid, _ := ReplayIndex(raw)
	s.report.IndexRecords = len(recs)
	s.report.TruncatedBytes = int64(len(raw) - valid)

	// Fold the record stream into the final residency.
	folded := make(map[string]cache.DiskEntry)
	for _, r := range recs {
		if r.Del {
			delete(folded, r.Entry.Doc.URL)
		} else {
			folded[r.Entry.Doc.URL] = r.Entry
		}
	}

	// Cross-check each entry's blob file by presence and size (one stat
	// per distinct sum; bodies are not read).
	type fileState struct {
		size int64
		ok   bool
	}
	files := make(map[[32]byte]fileState)
	for _, e := range folded {
		if _, seen := files[e.Sum]; seen {
			continue
		}
		fi, err := os.Stat(blobPath(s.dir, e.Sum))
		files[e.Sum] = fileState{size: func() int64 {
			if err != nil {
				return -1
			}
			return fi.Size()
		}(), ok: err == nil}
	}
	kept := make([]cache.DiskEntry, 0, len(folded))
	for _, e := range folded {
		st := files[e.Sum]
		if !st.ok || st.size != e.Doc.Size {
			s.report.LostBlobs++
			continue
		}
		kept = append(kept, e)
	}
	// Rebuild the LRU in recency order.
	sort.Slice(kept, func(i, j int) bool {
		if !kept[i].LastHit.Equal(kept[j].LastHit) {
			return kept[i].LastHit.Before(kept[j].LastHit)
		}
		return kept[i].Doc.URL < kept[j].Doc.URL
	})
	for _, e := range kept {
		d := &dentry{e: e}
		s.entries[e.Doc.URL] = d
		s.pushFront(d)
		s.refs[e.Sum]++
		s.used += e.Doc.Size
	}
	s.report.Entries = len(s.entries)
	s.report.Bytes = s.used

	// Sweep blob files nothing references (crashed half-demotions,
	// entries whose del frame landed but whose unlink did not) and empty
	// tmp staging leftovers.
	s.report.Orphans = s.sweepOrphans()

	// Reopen the log for appending; rewrite it first if replay carried a
	// torn tail or heavy garbage.
	garbage := s.report.IndexRecords - len(s.entries)
	if s.report.TruncatedBytes > 0 || garbage > len(s.entries)+128 {
		if err := s.compactLocked(); err != nil {
			return err
		}
		s.report.Compacted = true
	} else {
		f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("blob: open index: %w", err)
		}
		s.index = f
		s.frames = s.report.IndexRecords
	}
	return nil
}

// sweepOrphans removes unreferenced blob files and tmp leftovers,
// returning how many blob files were unlinked.
func (s *Store) sweepOrphans() int {
	orphans := 0
	root := filepath.Join(s.dir, "blobs")
	dirs, _ := os.ReadDir(root)
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(root, d.Name()))
		for _, f := range files {
			var sum [32]byte
			b, err := hex.DecodeString(f.Name())
			if err != nil || len(b) != 32 {
				os.Remove(filepath.Join(root, d.Name(), f.Name()))
				orphans++
				continue
			}
			copy(sum[:], b)
			if s.refs[sum] == 0 {
				os.Remove(filepath.Join(root, d.Name(), f.Name()))
				orphans++
			}
		}
	}
	tmps, _ := os.ReadDir(filepath.Join(s.dir, "tmp"))
	for _, f := range tmps {
		os.Remove(filepath.Join(s.dir, "tmp", f.Name()))
	}
	return orphans
}

// compactLocked rewrites the index log to one put frame per live entry
// (atomic temp+fsync+rename) and reopens it for appending. Caller holds
// mu or is the single-threaded recovery path.
func (s *Store) compactLocked() error {
	if s.index != nil {
		s.index.Close()
		s.index = nil
	}
	tmp := filepath.Join(s.dir, "tmp", "index.compact")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("blob: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	// Oldest-first so a replay rebuilds the same LRU order.
	for d := s.tail; d != nil; d = d.prev {
		s.frame = appendIndexRecord(s.frame[:0], IndexRecord{Entry: d.e})
		if _, err := w.Write(s.frame); err != nil {
			f.Close()
			return fmt.Errorf("blob: compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("blob: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("blob: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("blob: compact: %w", err)
	}
	if err := os.Rename(tmp, s.indexPath()); err != nil {
		return fmt.Errorf("blob: compact: %w", err)
	}
	out, err := os.OpenFile(s.indexPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("blob: reopen index: %w", err)
	}
	s.index = out
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

// pushFront links d as the most recently used entry.
func (s *Store) pushFront(d *dentry) {
	d.prev, d.next = nil, s.head
	if s.head != nil {
		s.head.prev = d
	}
	s.head = d
	if s.tail == nil {
		s.tail = d
	}
}

// unlink removes d from the LRU list.
func (s *Store) unlink(d *dentry) {
	if d.prev != nil {
		d.prev.next = d.next
	} else {
		s.head = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	} else {
		s.tail = d.prev
	}
	d.prev, d.next = nil, nil
}

// dropLocked removes d's entry: index del frame, refcount decrement and
// file unlink on last reference.
func (s *Store) dropLocked(d *dentry) error {
	delete(s.entries, d.e.Doc.URL)
	s.unlink(d)
	s.used -= d.e.Doc.Size
	s.refs[d.e.Sum]--
	if s.refs[d.e.Sum] <= 0 {
		delete(s.refs, d.e.Sum)
		os.Remove(blobPath(s.dir, d.e.Sum))
	}
	return s.appendLocked(IndexRecord{Del: true, Entry: cache.DiskEntry{Doc: cache.Document{URL: d.e.Doc.URL}}})
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
	// Hash (and stage) the body outside any consideration of residency:
	// the sum decides whether bytes need to land at all.
	sum, staged, err := s.stageBody(body, e.Doc.Size)
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
	defer func() {
		if staged != "" { // not placed: refused, or the body is already there
			os.Remove(staged)
		}
	}()
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
		v := s.tail
		if v == nil {
			return e, nil, fmt.Errorf("blob: cannot free %d bytes", e.Doc.Size)
		}
		age := now.Sub(v.e.LastHit)
		if age < 0 {
			age = 0
		}
		ev := cache.DiskEviction{Entry: v.e, Age: age}
		if err := s.dropLocked(v); err != nil {
			return e, evicted, err
		}
		s.evictions++
		s.ages.Record(age, now)
		evicted = append(evicted, ev)
	}
	if s.refs[sum] == 0 {
		// First reference: move the staged file into place.
		if err := s.placeLocked(staged, sum); err != nil {
			return e, evicted, fmt.Errorf("blob: %w", err)
		}
		staged = ""
	}
	d := &dentry{e: e}
	s.entries[e.Doc.URL] = d
	s.pushFront(d)
	s.refs[sum]++
	s.used += e.Doc.Size
	if err := s.appendLocked(IndexRecord{Entry: e}); err != nil {
		return e, evicted, err
	}
	return e, evicted, nil
}

// Open implements cache.DiskTier: the entry plus a reader that verifies
// the checksum as it streams (failing at EOF on a mismatch and dropping
// the corrupt entry).
func (s *Store) Open(url string) (cache.DiskEntry, io.ReadCloser, bool) {
	s.mu.Lock()
	d, ok := s.entries[url]
	if !ok || s.closed {
		s.mu.Unlock()
		return cache.DiskEntry{}, nil, false
	}
	e := d.e
	s.mu.Unlock()
	f, err := os.Open(blobPath(s.dir, e.Sum))
	if err != nil {
		// Between the unlock and the open a concurrent promotion or
		// Remove may have dropped the entry and unlinked its blob: that
		// is the document leaving the tier, not corruption. Under the
		// lock the index and the files agree, so look again there — only
		// a blob still indexed under the same sum that still cannot be
		// opened is corrupt.
		s.mu.Lock()
		if d, ok := s.entries[url]; !ok || d.e.Sum != e.Sum || s.closed {
			s.mu.Unlock()
			return cache.DiskEntry{}, nil, false
		}
		f, err = os.Open(blobPath(s.dir, e.Sum))
		s.mu.Unlock()
		if err != nil {
			s.dropCorrupt(url, e.Sum)
			return cache.DiskEntry{}, nil, false
		}
	}
	st := stagers.Get().(*stager)
	st.h.Reset()
	return e, &verifyReader{s: s, f: f, st: st, url: url, want: e.Sum, remain: e.Doc.Size}, true
}

// dropCorrupt removes a failed entry and counts the checksum failure.
func (s *Store) dropCorrupt(url string, sum [32]byte) {
	s.checksumFailures.Add(1)
	s.mu.Lock()
	if d, ok := s.entries[url]; ok && d.e.Sum == sum && !s.closed {
		s.dropLocked(d)
	}
	s.mu.Unlock()
}

// verifyReader streams a blob while hashing it; EOF fails with
// ErrChecksum unless exactly the indexed bytes with the indexed sum were
// read. It owns its stager (only the hash is used) from Open to Close.
type verifyReader struct {
	s      *Store
	f      *os.File
	st     *stager // nil once closed
	url    string
	want   [32]byte
	remain int64
	failed bool
	done   bool
}

// Read implements io.Reader.
func (r *verifyReader) Read(p []byte) (int, error) {
	if r.st == nil {
		return 0, fs.ErrClosed
	}
	if r.remain == 0 {
		if !r.done {
			r.done = true
			if err := r.verify(); err != nil {
				return 0, err
			}
		}
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.f.Read(p)
	r.st.h.Write(p[:n])
	r.remain -= int64(n)
	if err == io.EOF && r.remain > 0 {
		// Shorter than indexed: corrupt.
		r.fail()
		return n, ErrChecksum
	}
	if err == io.EOF {
		err = nil
	}
	if err == nil && r.remain == 0 && !r.done {
		r.done = true
		if verr := r.verify(); verr != nil {
			return n, verr
		}
	}
	return n, err
}

// verify compares the streamed hash with the indexed sum.
func (r *verifyReader) verify() error {
	if r.st.sum() != r.want {
		r.fail()
		return ErrChecksum
	}
	return nil
}

// fail records the corruption once.
func (r *verifyReader) fail() {
	if !r.failed {
		r.failed = true
		r.s.dropCorrupt(r.url, r.want)
	}
}

// Close implements io.Closer; a close before the verified EOF returns
// nil (partial reads cannot verify), after a failure it reports it.
func (r *verifyReader) Close() error {
	err := r.f.Close()
	if r.st != nil {
		stagers.Put(r.st)
		r.st = nil
	}
	if r.failed {
		return ErrChecksum
	}
	return err
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
	return e, true
}

// Contains implements cache.DiskTier.
func (s *Store) Contains(url string) bool {
	s.mu.Lock()
	_, ok := s.entries[url]
	s.mu.Unlock()
	return ok
}

// Peek implements cache.DiskTier.
func (s *Store) Peek(url string) (cache.DiskEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.entries[url]
	if !ok {
		return cache.DiskEntry{}, false
	}
	return d.e, true
}

// ExpirationAge implements cache.DiskTier: eq. 5 over the tier's own
// evictions — NoContention until the first one.
func (s *Store) ExpirationAge(now time.Time) time.Duration {
	s.mu.Lock()
	age := s.ages.WindowedAt(now)
	s.mu.Unlock()
	return age
}

// Len implements cache.DiskTier.
func (s *Store) Len() int {
	s.mu.Lock()
	n := len(s.entries)
	s.mu.Unlock()
	return n
}

// Used implements cache.DiskTier (logical bytes; shared files count once
// per referencing URL).
func (s *Store) Used() int64 {
	s.mu.Lock()
	u := s.used
	s.mu.Unlock()
	return u
}

// Capacity implements cache.DiskTier.
func (s *Store) Capacity() int64 { return s.capacity }

// Evictions returns the number of LRU evictions performed.
func (s *Store) Evictions() int64 {
	s.mu.Lock()
	n := s.evictions
	s.mu.Unlock()
	return n
}

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

// Entries implements cache.DiskTier.
func (s *Store) Entries() []cache.DiskEntry {
	s.mu.Lock()
	out := make([]cache.DiskEntry, 0, len(s.entries))
	for _, d := range s.entries {
		out = append(out, d.e)
	}
	s.mu.Unlock()
	return out
}

// ChecksumFailures implements cache.DiskTier.
func (s *Store) ChecksumFailures() int64 { return s.checksumFailures.Load() }

// Report returns the Open-time recovery accounting.
func (s *Store) Report() Report {
	s.mu.Lock()
	r := s.report
	s.mu.Unlock()
	return r
}

// VerifyAll re-reads every blob through the verifying reader — the full
// integrity pass the disk-smoke gate and the post-crash e2e run. Corrupt
// entries are dropped and counted.
func (s *Store) VerifyAll() VerifyReport {
	var rep VerifyReport
	for _, url := range s.URLs() {
		_, rc, ok := s.Open(url)
		if !ok {
			rep.Failed++
			rep.FailedURLs = append(rep.FailedURLs, url)
			continue
		}
		_, err := io.Copy(io.Discard, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			rep.Failed++
			rep.FailedURLs = append(rep.FailedURLs, url)
			continue
		}
		rep.Verified++
	}
	return rep
}

// Sync implements cache.DiskTier: fsync the index log.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.index == nil {
		return nil
	}
	if err := s.index.Sync(); err != nil {
		return fmt.Errorf("blob: sync index: %w", err)
	}
	return nil
}

// Close implements cache.DiskTier: final index fsync and close. Later
// calls on the store are inert.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.index == nil {
		return nil
	}
	err := s.index.Sync()
	if cerr := s.index.Close(); err == nil {
		err = cerr
	}
	s.index = nil
	if err != nil {
		return fmt.Errorf("blob: close: %w", err)
	}
	return nil
}
