// Package persist makes a cooperative cache node crash-safe: it combines a
// periodic full snapshot of the cache metadata with an append-only
// CRC32C-framed write-ahead journal of every mutation, so a node killed at
// any instant — including mid-write — reopens with its cache contents,
// per-document metadata, and expiration-age tracker intact instead of
// rejoining the group cold with a meaningless contention signal.
//
// The store stays decoupled: persistence observes cache.Store events (see
// cache.SetEventSink) and never reaches into replacement policies. Under a
// tiered store it owns the memory tier and the advertised exit tracker
// only; which documents are disk-resident is recorded once, by the blob
// tier's own index (internal/blob).
//
// Disk layout under the data directory:
//
//	snapshot.dat        latest atomic snapshot (see snapshot.go)
//	journal.<gen>.wal   append-only journal continuing that snapshot
//
// Checkpointing rotates to journal generation gen+1 *before* writing the
// new snapshot, so every crash window replays cleanly: an old snapshot
// plus the full old journal plus any newer journals reproduces the exact
// pre-crash state, and a bad byte anywhere truncates replay at the first
// unverifiable frame instead of failing recovery.
package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"eacache/internal/cache"
)

const (
	snapshotName = "snapshot.dat"
	snapshotTmp  = "snapshot.tmp"
	journalExt   = ".wal"
)

// Config configures a Persister.
type Config struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// Logger receives recovery and degradation notices; nil discards.
	Logger *log.Logger
	// BatchFrames bounds the group-commit queue: at most this many frames
	// wait for the flusher before further appenders block (backpressure).
	// 0 means DefaultBatchFrames; 1 effectively disables coalescing.
	BatchFrames int
}

// DefaultBatchFrames is the group-commit queue bound when
// Config.BatchFrames is 0. It caps the frames coalesced into one write()
// and therefore the memory parked in the queue (frames are at most
// maxFramePayload+frameOverhead bytes, cache events far smaller).
const DefaultBatchFrames = 256

// Report describes what one Open recovered, for warm-restart logging and
// tests.
type Report struct {
	// SnapshotLoaded reports whether a verified snapshot was found.
	SnapshotLoaded bool
	// SnapshotEntries is the number of entries in that snapshot.
	SnapshotEntries int
	// JournalRecords is how many journal records replayed cleanly.
	JournalRecords int
	// JournalBytes is how many journal bytes those records span.
	JournalBytes int64
	// DiscardedBytes is how many journal bytes were dropped (torn tail,
	// corruption, or journals stranded past a damaged one).
	DiscardedBytes int64
	// Discarded says why bytes were discarded or a snapshot/journal was
	// rejected; empty when recovery was clean.
	Discarded string
	// Entries and Bytes describe the final recovered state.
	Entries int
	Bytes   int64
}

// Persister owns a node's data directory: it replays whatever survived
// the last run at Open, journals every cache event, and checkpoints on
// demand. Append/Rotate/WriteSnapshot are safe for concurrent use with
// each other, but the caller must serialise Rotate against the capture of
// the state it snapshots (see Checkpoint contract in internal/netnode).
//
// Appends are group-committed: an appender encodes its frame onto the
// end of a bounded batch and blocks until the background flusher has
// written it, so concurrent appenders coalesce into one write() syscall
// per batch while the durability contract is unchanged — when Append
// returns, the frame is physically in the journal file (a recovery that
// reads the file at that instant replays it). A lone appender degenerates
// to exactly the old one-write-per-event behaviour. Sync policy is also
// unchanged: fsync happens at Rotate/Close, not per batch, so crash
// semantics (torn-tail truncation, replay-on-snapshot) are identical.
type Persister struct {
	dir    string
	logger *log.Logger

	mu      sync.Mutex
	journal *os.File
	gen     uint64
	closed  bool

	// Group commit (all guarded by mu; the conds share it).
	batchCap      int
	pending       []byte // the batch being formed: whole frames, back to back
	pendingFrames int    // how many frames pending holds
	seqIn         uint64 // frames enqueued so far
	seqDone       uint64 // frames physically written so far
	// flushCond wakes the flusher when frames arrive or the persister
	// closes; doneCond wakes appenders (and drain barriers) when seqDone
	// advances or the queue drains.
	flushCond     *sync.Cond
	doneCond      *sync.Cond
	flusherExited chan struct{}

	recovered State
	report    Report
}

// Open replays the data directory and leaves the persister ready to
// append. Recovery is corruption-tolerant by design: a bad snapshot falls
// back to cold start, a bad journal frame truncates replay there, and an
// unreadable journal falls back to snapshot-only — each is logged and
// reported, never fatal.
func Open(cfg Config) (*Persister, error) {
	if cfg.Dir == "" {
		return nil, errors.New("persist: empty data dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if cfg.BatchFrames < 0 {
		return nil, fmt.Errorf("persist: negative batch bound %d", cfg.BatchFrames)
	}
	batchCap := cfg.BatchFrames
	if batchCap == 0 {
		batchCap = DefaultBatchFrames
	}
	p := &Persister{
		dir:           cfg.Dir,
		logger:        cfg.Logger,
		batchCap:      batchCap,
		flusherExited: make(chan struct{}),
	}
	p.flushCond = sync.NewCond(&p.mu)
	p.doneCond = sync.NewCond(&p.mu)

	// 1. Snapshot, if any.
	var base State
	snapData, err := os.ReadFile(filepath.Join(p.dir, snapshotName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Cold start.
	case err != nil:
		p.noteDiscard("snapshot unreadable: %v", err)
	default:
		st, derr := DecodeSnapshot(snapData)
		if derr != nil {
			p.noteDiscard("snapshot rejected: %v", derr)
		} else {
			base = st
			p.report.SnapshotLoaded = true
			p.report.SnapshotEntries = len(st.Entries)
		}
	}

	// 2. Journal chain: start at the snapshot's generation (or the oldest
	// journal on disk when there is no snapshot) and replay consecutive
	// generations until one is missing or damaged.
	gens := p.listJournalGens()
	start := base.Gen
	if !p.report.SnapshotLoaded && len(gens) > 0 {
		start = gens[0]
	}
	rep := newReplayState(base)
	cur := start
	appendGen := start
	appendLen := int64(-1) // -1: create fresh
	rescue := false
	for {
		data, rerr := os.ReadFile(p.journalPath(cur))
		if errors.Is(rerr, fs.ErrNotExist) {
			break
		}
		if rerr != nil {
			// Unreadable mid-chain: snapshot+prefix only; append to a
			// generation past everything on disk so the bad file is
			// never extended or replayed over.
			p.noteDiscard("journal gen %d unreadable: %v", cur, rerr)
			appendGen = maxGen(gens) + 1
			appendLen = -1
			rescue = true
			break
		}
		events, good, damage := ReplayJournal(data)
		for _, ev := range events {
			rep.apply(ev)
		}
		p.report.JournalRecords += len(events)
		p.report.JournalBytes += int64(good)
		appendGen, appendLen = cur, int64(good)
		if damage != nil {
			p.report.DiscardedBytes += int64(len(data) - good)
			p.noteDiscard("journal gen %d: %v", cur, damage)
			break
		}
		cur++
	}

	p.recovered = rep.state()
	p.recovered.Gen = appendGen
	p.report.Entries = len(p.recovered.Entries)
	p.report.Bytes = p.recovered.LiveBytes()

	// 3. Open the append target, truncating away any torn tail so new
	// frames land on a verifiable boundary; sweep journals outside the
	// live chain (stale generations below the snapshot, strands past a
	// damaged file) so they cannot resurrect on a later recovery.
	f, err := p.openJournal(appendGen, appendLen)
	if err != nil {
		return nil, err
	}
	p.journal = f
	p.gen = appendGen
	if rescue {
		// The decision to abandon the unreadable generation must be made
		// durable: a snapshot stamped with the new generation moves the
		// recovery start past the wreck, otherwise the next Open would
		// break at the same file and never reach the journal we are about
		// to write. WriteSnapshot also sweeps the superseded generations,
		// wreck included.
		if werr := p.WriteSnapshot(p.recovered); werr != nil {
			p.logf("persist: rescue snapshot: %v", werr)
		}
	}
	for _, g := range gens {
		if g < start || g > appendGen {
			if rmErr := os.Remove(p.journalPath(g)); rmErr != nil {
				p.logf("persist: sweep journal gen %d: %v", g, rmErr)
			}
		}
	}
	go p.flusher()
	return p, nil
}

// RecoveredState returns the state recovered at Open; the caller loads it
// into a store with Restore before attaching the event sink.
func (p *Persister) RecoveredState() State { return p.recovered }

// Report returns what Open recovered and discarded.
func (p *Persister) Report() Report { return p.report }

// Append journals one cache event via group commit: the frame joins the
// pending batch and Append blocks until the flusher has written it, so
// the frame is in the journal file when Append returns (recovery-visible
// immediately, exactly like the old direct write). It never fails the
// caller's request path: an I/O error degrades durability and is logged,
// the cache keeps serving. A disk-tier remove is not the journal's to
// record (the blob index's del frame is that mutation) and is skipped.
func (p *Persister) Append(ev cache.Event) {
	if ev.Tier == cache.TierDisk && ev.Kind == cache.EventRemove {
		return
	}
	if err := p.enqueue(ev); err != nil {
		p.logf("persist: drop event: %v", err)
	}
}

// enqueue encodes ev straight into the pending batch under the lock and
// waits for the flusher to cover it. The error is the encoder's; an event
// it refuses never touches the batch.
func (p *Persister) enqueue(ev cache.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Backpressure: a full queue means the flusher is behind; wait for it
	// to drain rather than growing the batch without bound.
	for p.pendingFrames >= p.batchCap && !p.closed {
		p.doneCond.Wait()
	}
	if p.closed || p.journal == nil {
		return nil
	}
	batch, err := appendEvent(p.pending, ev)
	if err != nil {
		return err
	}
	p.pending = batch
	p.pendingFrames++
	p.seqIn++
	seq := p.seqIn
	p.flushCond.Signal()
	// Wait for the flusher to cover our frame. While it writes batch k,
	// later appenders park here forming batch k+1 — the coalescing.
	for p.seqDone < seq && !p.closed {
		p.doneCond.Wait()
	}
	return nil
}

// flusher is the single background goroutine that drains the pending
// batch: it swaps the buffer out under the lock and issues ONE write()
// for it as it stands. Two buffers alternate: the one appenders encode
// into belongs to whoever holds p.mu, the other is the flusher's alone
// from the swap until its write returns. It exits when the persister
// closes with the queue empty (Close drains first).
func (p *Persister) flusher() {
	defer close(p.flusherExited)
	var spare []byte
	p.mu.Lock()
	for {
		for p.pendingFrames == 0 && !p.closed {
			p.flushCond.Wait()
		}
		if p.pendingFrames == 0 {
			p.mu.Unlock()
			return
		}
		batch, frames := p.pending, p.pendingFrames
		p.pending, p.pendingFrames = spare[:0], 0
		target := p.journal
		p.mu.Unlock()

		if target != nil {
			if _, err := target.Write(batch); err != nil {
				p.logf("persist: journal append (%d frames): %v", frames, err)
			}
		}
		spare = batch

		p.mu.Lock()
		// Frames are on disk (or dropped with a logged error — durability
		// degraded, same contract as before): release the appenders.
		p.seqDone += uint64(frames)
		p.doneCond.Broadcast()
	}
}

// drainLocked blocks until every enqueued frame has been written (or the
// persister closes). Caller holds p.mu. This is the group-commit barrier:
// after it returns, the journal file contains a consistent prefix ending
// at the current rotation/close point.
func (p *Persister) drainLocked() {
	for p.seqDone < p.seqIn && !p.closed {
		p.doneCond.Wait()
	}
}

// Rotate switches appends to the next journal generation. The caller must
// hold the lock that serialises cache mutations while calling it, so the
// state it is about to snapshot aligns exactly with the rotation point.
// Rotate first drains the group-commit queue, so every event appended
// before the capture lands in the old generation and the new journal
// starts empty at exactly the snapshot's state.
func (p *Persister) Rotate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.drainLocked()
	if p.closed {
		return errors.New("persist: closed")
	}
	next := p.gen + 1
	f, err := p.openJournal(next, -1)
	if err != nil {
		return err
	}
	old := p.journal
	p.journal = f
	p.gen = next
	if old != nil {
		_ = old.Sync()
		_ = old.Close()
	}
	return nil
}

// WriteSnapshot durably writes st as the new snapshot (temp file, fsync,
// atomic rename), stamped with the current journal generation, then
// deletes the journals the snapshot supersedes. Call after Rotate with
// the state captured at the rotation point.
func (p *Persister) WriteSnapshot(st State) error {
	p.mu.Lock()
	gen := p.gen
	p.mu.Unlock()
	st.Gen = gen
	data := EncodeSnapshot(st)

	tmp := filepath.Join(p.dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, snapshotName)); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	p.syncDir()
	for _, g := range p.listJournalGens() {
		if g < gen {
			if err := os.Remove(p.journalPath(g)); err != nil {
				p.logf("persist: remove superseded journal gen %d: %v", g, err)
			}
		}
	}
	return nil
}

// Close drains the group-commit queue, then syncs and closes the
// journal. It does not snapshot; callers that want a final checkpoint
// (graceful drain) do Rotate + WriteSnapshot first. Close is idempotent.
func (p *Persister) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.drainLocked()
	p.closed = true
	journal := p.journal
	p.journal = nil
	// Wake everyone: the flusher exits (queue is empty and closed is
	// set), blocked appenders give up.
	p.flushCond.Signal()
	p.doneCond.Broadcast()
	p.mu.Unlock()
	<-p.flusherExited
	if journal == nil {
		return nil
	}
	syncErr := journal.Sync()
	closeErr := journal.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// openJournal opens journal generation gen for appending. size >= 0
// truncates to that many bytes first (cutting a torn tail); -1 starts the
// file empty.
func (p *Persister) openJournal(gen uint64, size int64) (*os.File, error) {
	path := p.journalPath(gen)
	flags := os.O_CREATE | os.O_WRONLY
	if size < 0 {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open journal: %w", err)
	}
	if size >= 0 {
		if err := f.Truncate(size); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("persist: truncate journal: %w", err)
		}
		if _, err := f.Seek(size, 0); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("persist: seek journal: %w", err)
		}
	}
	return f, nil
}

func (p *Persister) journalPath(gen uint64) string {
	return filepath.Join(p.dir, fmt.Sprintf("journal.%d%s", gen, journalExt))
}

// listJournalGens returns the journal generations on disk, ascending.
func (p *Persister) listJournalGens() []uint64 {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "journal.") || !strings.HasSuffix(name, journalExt) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, "journal."), journalExt)
		g, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

func maxGen(gens []uint64) uint64 {
	if len(gens) == 0 {
		return 0
	}
	return gens[len(gens)-1]
}

// syncDir fsyncs the data directory so a rename survives power loss;
// best-effort (not all platforms support directory fsync).
func (p *Persister) syncDir() {
	d, err := os.Open(p.dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

func (p *Persister) noteDiscard(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if p.report.Discarded == "" {
		p.report.Discarded = msg
	} else {
		p.report.Discarded += "; " + msg
	}
	p.logf("persist: %s", msg)
}

func (p *Persister) logf(format string, args ...any) {
	if p.logger != nil {
		p.logger.Printf(format, args...)
	}
}

// replayState folds journal events over a snapshot base, mirroring
// cache.Store semantics exactly: an insert of a cached URL refreshes it
// like a hit, hits and promotions bump the counter and last-hit time, and
// evictions feed the expiration-age tracker. Tier moves mirror
// cache.TieredStore's memory side: a demote takes the entry out of memory
// without touching the tracker (the document did not exit), a promote-disk
// puts it back, and only disk evictions and demotion drops (which stay
// plain memory evicts) record an exit age.
type replayState struct {
	entries map[string]*EntryState
	tracker *cache.ExpAgeTracker
}

// replayRing bounds the eviction samples kept during replay when the base
// tracker state is narrower (or, with no snapshot, absent). Recovery does
// not know what window the store will be configured with, so it keeps a
// generous recent-sample ring; Store.RestoreTracker re-windows it into the
// configured shape.
const replayRing = 4096

func newReplayState(base State) *replayState {
	tr := base.Tracker
	if tr.Horizon <= 0 && tr.Window < replayRing {
		tr.Window = replayRing
	}
	r := &replayState{
		entries: make(map[string]*EntryState, len(base.Entries)),
		tracker: cache.NewTrackerFromState(tr),
	}
	for i := range base.Entries {
		e := base.Entries[i]
		r.entries[e.URL] = &e
	}
	return r
}

func (r *replayState) apply(ev cache.Event) {
	switch ev.Kind {
	case cache.EventInsert:
		if e, ok := r.entries[ev.Doc.URL]; ok {
			e.Size = ev.Doc.Size
			e.Expires = ev.Doc.Expires
			e.Hits++
			e.LastHit = ev.At
			return
		}
		r.entries[ev.Doc.URL] = &EntryState{
			URL:       ev.Doc.URL,
			Size:      ev.Doc.Size,
			Expires:   ev.Doc.Expires,
			EnteredAt: ev.At,
			LastHit:   ev.At,
			Hits:      1,
		}
	case cache.EventHit, cache.EventPromote:
		if e, ok := r.entries[ev.Doc.URL]; ok {
			e.Hits++
			e.LastHit = ev.At
		}
	case cache.EventEvict:
		if ev.Tier == cache.TierMemory { // a disk-tier eviction is an exit all the same
			delete(r.entries, ev.Doc.URL)
		}
		r.tracker.Record(ev.Age, ev.At)
	case cache.EventRemove, cache.EventDemote:
		delete(r.entries, ev.Doc.URL)
	case cache.EventPromoteFromDisk:
		r.entries[ev.Doc.URL] = &EntryState{
			URL:       ev.Doc.URL,
			Size:      ev.Doc.Size,
			Expires:   ev.Doc.Expires,
			EnteredAt: ev.EnteredAt,
			LastHit:   ev.At,
			Hits:      ev.Hits,
		}
	}
}

// state flattens the replay into a State (entries in ascending last-hit
// order, ties broken by URL for determinism).
func (r *replayState) state() State {
	st := State{
		Entries: make([]EntryState, 0, len(r.entries)),
		Tracker: r.tracker.State(),
	}
	for _, e := range r.entries {
		st.Entries = append(st.Entries, *e)
	}
	sort.Slice(st.Entries, func(i, j int) bool {
		if !st.Entries[i].LastHit.Equal(st.Entries[j].LastHit) {
			return st.Entries[i].LastHit.Before(st.Entries[j].LastHit)
		}
		return st.Entries[i].URL < st.Entries[j].URL
	})
	return st
}
