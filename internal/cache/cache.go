// Package cache implements the single-proxy caching substrate of the EA
// reproduction: a byte-capacity document store with the paper's two
// replacement policies (LRU and LFU) and its expiration-age bookkeeping.
//
// Every document carries the metadata the paper requires (entry time, last
// hit time, hit counter). On eviction the store computes the victim's
// document expiration age — (T1 - T0) since last hit for LRU (paper eq. 2),
// lifetime/hits for LFU (paper eq. 3) — and folds it into the
// cache expiration age (paper eq. 5), the contention signal the EA placement
// scheme exchanges between proxies.
package cache

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// NoContention is the expiration age reported by a cache that has not yet
// evicted anything. It is effectively +infinity: a cache with free space has
// no disk contention, so it should always be willing to accept a copy.
const NoContention = time.Duration(math.MaxInt64)

// ErrTooLarge reports a document bigger than the whole cache.
var ErrTooLarge = errors.New("cache: document larger than capacity")

// Document is the unit of caching: a web object identified by its URL.
type Document struct {
	// URL identifies the document.
	URL string
	// Size is the body size in bytes. The paper replaces zero-size trace
	// records with the 4KB average document size before simulation, so
	// sizes here are always positive.
	Size int64
}

// Entry is a cached document plus the replacement/expiration metadata the
// paper's schemes depend on.
type Entry struct {
	Doc Document
	// EnteredAt is T0, the time the document entered the cache.
	EnteredAt time.Time
	// LastHit is the time of the most recent hit. A document that has
	// never been hit carries its entry time, so its expiration age equals
	// its whole lifetime.
	LastHit time.Time
	// Hits is the paper's HIT-COUNTER: initialised to 1 when the document
	// enters the cache and incremented on every hit.
	Hits int64

	// intrusive hooks owned by the policies
	prev, next *Entry // lru list
	heapIndex  int    // lfu heap position
}

// Eviction records one removed document and its expiration age, as fed to
// the cache expiration-age tracker and surfaced to callers for testing and
// metrics.
type Eviction struct {
	Doc Document
	// Age is the document expiration age at removal (eq. 2 or eq. 3).
	Age time.Duration
	// ResidencyTime is how long the document lived in the cache.
	ResidencyTime time.Duration
}

// Policy is a replacement policy over intrusive entries. The Store drives
// it: Add on insert, Touch on hit (or EA-scheme promotion), Remove on
// eviction or explicit removal, and Victim to choose what to evict next.
type Policy interface {
	// Add registers a newly inserted entry.
	Add(e *Entry)
	// Touch records a hit on the entry (after the Store updated its
	// metadata).
	Touch(e *Entry)
	// Remove unregisters the entry.
	Remove(e *Entry)
	// Victim returns the entry to evict next, or nil if empty. The entry
	// stays registered until Remove is called.
	Victim() *Entry
	// ExpirationAge computes the document expiration age of an entry at
	// removal time, per the paper's per-policy definitions.
	ExpirationAge(e *Entry, now time.Time) time.Duration
}

// Config configures a Store.
type Config struct {
	// Capacity is the disk budget in bytes. Must be positive.
	Capacity int64
	// Policy is the replacement policy. Defaults to NewLRU().
	Policy Policy
	// ExpirationWindow averages the document expiration ages of the most
	// recent N evictions to produce the cache expiration age used in
	// placement decisions. Mutually exclusive with ExpirationHorizon.
	ExpirationWindow int
	// ExpirationHorizon averages over the victims evicted within the
	// last H of (simulated) time — the paper's "finite time duration
	// (Ti, Tj)" read literally, and the variant whose negative feedback
	// spreads placement across the group (see ExpAgeTracker). When both
	// ExpirationWindow and ExpirationHorizon are zero the average is
	// cumulative since the cache started.
	ExpirationHorizon time.Duration
}

// WindowAll selects a cumulative expiration-age window.
const WindowAll = 0

// DefaultExpirationWindow is a reasonable eviction-count window for callers
// that want a count-based signal.
const DefaultExpirationWindow = 512

// DefaultExpirationHorizon is the time window the cooperative placement
// layer uses by default for the contention signal.
const DefaultExpirationHorizon = 6 * time.Hour

// Tier identifies which storage tier an event concerns. The zero value is
// the memory tier, so every pre-tiering event (and journal record) reads
// unchanged.
type Tier int8

const (
	// TierMemory is the in-memory tier (the classic Store).
	TierMemory Tier = iota
	// TierDisk is the blob tier beneath it.
	TierDisk
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// EventKind classifies a Store mutation as seen by an event sink.
type EventKind int

// Event kinds, in the order the store applies them.
const (
	// EventInsert: a document entered the cache via Put, or an already
	// cached URL was refreshed (new size adopted, hit recorded).
	EventInsert EventKind = iota + 1
	// EventHit: a Get found the document (hit counter and last-hit
	// updated).
	EventHit
	// EventPromote: a Touch promoted the document (the EA responder-side
	// promotion; same metadata effect as a hit).
	EventPromote
	// EventEvict: the replacement policy evicted the document and its
	// expiration age was folded into the tracker.
	EventEvict
	// EventRemove: the document was explicitly invalidated via Remove
	// (no expiration age recorded).
	EventRemove
	// EventDemote: the memory tier evicted the document and the tier
	// controller moved it to the disk tier instead of dropping it. The
	// event carries the entry metadata (EnteredAt/LastHit/Hits) as the
	// disk tier admitted it. A demotion is a tier move, not an exit: no
	// expiration age is recorded and set-membership observers (the
	// digest) keep advertising the URL.
	EventDemote
	// EventPromoteFromDisk: a disk-resident document was accessed and
	// moved back into the memory tier. EnteredAt/Hits carry the metadata
	// of the promoted memory entry (original entry time preserved, the
	// promoting access counted as a hit at At).
	EventPromoteFromDisk
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventInsert:
		return "insert"
	case EventHit:
		return "hit"
	case EventPromote:
		return "promote"
	case EventEvict:
		return "evict"
	case EventRemove:
		return "remove"
	case EventDemote:
		return "demote"
	case EventPromoteFromDisk:
		return "promote-disk"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event describes one Store mutation, emitted to the event sink in the
// exact order the store applied it — an observer that records every event
// can replay them to reproduce the store's state (this is how
// internal/persist journals the cache without being entangled with the
// replacement policies).
type Event struct {
	Kind EventKind
	// Doc is the document the event concerns (for EventEvict and
	// EventRemove, the document as it was when removed).
	Doc Document
	// At is the mutation time the store recorded (the caller-supplied
	// now; zero for EventRemove, which takes no timestamp).
	At time.Time
	// Age is the victim's document expiration age (EventEvict only).
	Age time.Duration
	// Refresh distinguishes the two EventInsert cases: true when Put
	// refreshed an already cached URL rather than admitting a new one.
	// Set-membership observers (the incremental cache digest) must not
	// count a refresh as a second insertion of the same URL.
	Refresh bool
	// Tier is the storage tier the event concerns. The zero value is
	// TierMemory, so all pre-tiering events read unchanged. An
	// EventEvict or EventRemove with Tier == TierDisk left the disk
	// tier; demote/promote-disk events describe the move between tiers.
	Tier Tier
	// EnteredAt/LastHit/Hits carry the entry metadata on EventEvict,
	// EventDemote and EventPromoteFromDisk, so the tier controller can
	// rebuild a disk-resident entry (and journal replay can restore a
	// promoted one) without re-querying the store.
	EnteredAt time.Time
	LastHit   time.Time
	Hits      int64
}

// Store is a single proxy cache: documents, capacity accounting, replacement
// policy, and expiration-age tracking. It is not safe for concurrent use;
// the proxy layer serialises access.
type Store struct {
	capacity int64
	used     int64
	entries  map[string]*Entry
	policy   Policy
	ages     *ExpAgeTracker
	sink     func(Event)
	// free holds the zeroed entries of evicted and removed documents for
	// the next insert: at capacity every insert follows an eviction.
	free    []*Entry
	evicted []Eviction // the list Put and PromoteEntry return, reused

	insertions int64
	evictions  int64
}

// maxFreeEntries bounds Store.free: one large insert can evict hundreds
// of small documents, and the next inserts will not need them all.
const maxFreeEntries = 64

// New builds a Store from cfg.
func New(cfg Config) (*Store, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", cfg.Capacity)
	}
	ages, err := newTracker(cfg.ExpirationWindow, cfg.ExpirationHorizon)
	if err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == nil {
		policy = NewLRU()
	}
	return &Store{
		capacity: cfg.Capacity,
		entries:  make(map[string]*Entry),
		policy:   policy,
		ages:     ages,
	}, nil
}

// SetEventSink installs fn as the store's mutation observer; nil removes
// it. Events are delivered synchronously, in mutation order, while the
// store is mid-operation — the sink must not call back into the store.
func (s *Store) SetEventSink(fn func(Event)) { s.sink = fn }

// emit delivers one event to the sink, if any.
func (s *Store) emit(ev Event) {
	if s.sink != nil {
		s.sink(ev)
	}
}

// Capacity returns the configured byte budget.
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the bytes currently occupied.
func (s *Store) Used() int64 { return s.used }

// Len returns the number of cached documents.
func (s *Store) Len() int { return len(s.entries) }

// Contains reports whether url is cached, without touching recency state.
// This is what answers an ICP query.
func (s *Store) Contains(url string) bool {
	_, ok := s.entries[url]
	return ok
}

// Peek returns the cached document without updating any recency or hit
// metadata. The EA scheme uses this when a responder serves a remote request
// but must not give its copy a fresh lease of life.
func (s *Store) Peek(url string) (Document, bool) {
	e, ok := s.entries[url]
	if !ok {
		return Document{}, false
	}
	return e.Doc, true
}

// Get returns the cached document and records a hit: the hit counter is
// incremented, the last-hit time set to now, and the policy touched.
func (s *Store) Get(url string, now time.Time) (Document, bool) {
	e, ok := s.entries[url]
	if !ok {
		return Document{}, false
	}
	e.Hits++
	e.LastHit = now
	s.policy.Touch(e)
	s.emit(Event{Kind: EventHit, Doc: e.Doc, At: now})
	return e.Doc, true
}

// Touch promotes url as if it had been hit at now (the EA responder-side
// promotion to the head of the LRU list). It reports whether the document
// was present.
func (s *Store) Touch(url string, now time.Time) bool {
	e, ok := s.entries[url]
	if !ok {
		return false
	}
	e.Hits++
	e.LastHit = now
	s.policy.Touch(e)
	s.emit(Event{Kind: EventPromote, Doc: e.Doc, At: now})
	return true
}

// Put inserts doc at time now, evicting victims as needed, and returns the
// evictions performed in a list the store owns: it is valid until the next
// mutating call on the store. Re-inserting a cached URL refreshes it like a
// hit (and adopts the new size). Documents larger than the capacity are
// rejected with ErrTooLarge and cached nowhere, matching proxy behaviour.
func (s *Store) Put(doc Document, now time.Time) ([]Eviction, error) {
	if doc.Size < 0 {
		return nil, fmt.Errorf("cache: negative size %d for %q", doc.Size, doc.URL)
	}
	if doc.Size > s.capacity {
		return nil, ErrTooLarge
	}
	if e, ok := s.entries[doc.URL]; ok {
		s.used += doc.Size - e.Doc.Size
		e.Doc = doc
		e.Hits++
		e.LastHit = now
		s.policy.Touch(e)
		s.emit(Event{Kind: EventInsert, Doc: doc, At: now, Refresh: true})
		return s.makeRoomFor(0, now, doc.URL)
	}

	evicted, err := s.makeRoomFor(doc.Size, now, doc.URL)
	if err != nil {
		return evicted, err
	}
	s.insert(doc, now, now, 1)
	s.insertions++
	s.emit(Event{Kind: EventInsert, Doc: doc, At: now})
	return evicted, nil
}

// insert registers doc under a recycled (or new) entry. The entry belongs
// to the store from here until release; policies keep no reference to it
// after Policy.Remove.
func (s *Store) insert(doc Document, enteredAt, lastHit time.Time, hits int64) {
	var e *Entry
	if n := len(s.free); n > 0 {
		e, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	} else {
		e = new(Entry)
	}
	e.Doc, e.EnteredAt, e.LastHit, e.Hits = doc, enteredAt, lastHit, hits
	s.entries[doc.URL] = e
	s.used += doc.Size
	s.policy.Add(e)
}

// release takes back the entry of a document that left the store, zeroed
// so that it pins no URL and carries no hit count, heap position or list
// link into its next life.
func (s *Store) release(e *Entry) {
	if len(s.free) < maxFreeEntries {
		*e = Entry{}
		s.free = append(s.free, e)
	}
}

// Remove deletes url from the cache without recording an eviction age (it
// models invalidation, not contention-driven replacement).
func (s *Store) Remove(url string) bool {
	e, ok := s.entries[url]
	if !ok {
		return false
	}
	s.policy.Remove(e)
	delete(s.entries, url)
	s.used -= e.Doc.Size
	s.emit(Event{Kind: EventRemove, Doc: e.Doc})
	s.release(e)
	return true
}

// ExpirationAge returns the cache expiration age used for placement
// decisions as of time now: the windowed mean of the document expiration
// ages of evicted victims, or NoContention if there is no contention
// evidence (nothing evicted yet, or nothing within the horizon).
func (s *Store) ExpirationAge(now time.Time) time.Duration {
	return s.ages.WindowedAt(now)
}

// CumulativeExpirationAge returns the mean expiration age over every
// eviction since the cache started. This is the value Table 1 of the paper
// reports.
func (s *Store) CumulativeExpirationAge() time.Duration {
	return s.ages.Cumulative()
}

// Evictions returns the total number of contention evictions performed.
func (s *Store) Evictions() int64 { return s.evictions }

// Insertions returns the total number of document insertions.
func (s *Store) Insertions() int64 { return s.insertions }

// Entry exposes a copy of the metadata for url, for tests and inspection.
func (s *Store) Entry(url string) (Entry, bool) {
	e, ok := s.entries[url]
	if !ok {
		return Entry{}, false
	}
	cp := *e
	cp.prev, cp.next = nil, nil
	return cp, true
}

// Entries returns copies of every entry (policy hooks zeroed) in
// unspecified order, for persistence snapshots and inspection.
func (s *Store) Entries() []Entry {
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		cp := *e
		cp.prev, cp.next = nil, nil
		out = append(out, cp)
	}
	return out
}

// RestoreEntry reinserts a recovered document with its persisted metadata,
// bypassing eviction and the event sink (recovery must not re-journal what
// it replays). Callers restore entries in ascending LastHit order so the
// LRU list rebuilds in recency order. Hits below 1 are clamped to 1; a
// zero LastHit adopts enteredAt. Restoring over a present URL, a
// non-positive size, or past capacity is an error: the recovered set must
// be exactly what fitted before the crash.
func (s *Store) RestoreEntry(doc Document, enteredAt, lastHit time.Time, hits int64) error {
	if doc.Size <= 0 {
		return fmt.Errorf("cache: restore %q: non-positive size %d", doc.URL, doc.Size)
	}
	if doc.URL == "" {
		return fmt.Errorf("cache: restore: empty URL")
	}
	if _, ok := s.entries[doc.URL]; ok {
		return fmt.Errorf("cache: restore %q: already present", doc.URL)
	}
	if s.used+doc.Size > s.capacity {
		return fmt.Errorf("cache: restore %q: %d bytes do not fit (%d/%d used)",
			doc.URL, doc.Size, s.used, s.capacity)
	}
	if hits < 1 {
		hits = 1
	}
	if lastHit.IsZero() {
		lastHit = enteredAt
	}
	s.insert(doc, enteredAt, lastHit, hits)
	return nil
}

// PromoteEntry re-inserts a document returning from the disk tier into
// the memory tier, preserving its original entry time and hit history and
// counting the access that triggered the promotion as a hit at now (so the
// promoted entry's LastHit is now and Hits is the disk-carried count plus
// one). If the URL is already present — a racing fetch re-admitted it —
// the call degrades to a Touch. Victims evicted to make room are returned
// like Put's, in the same store-owned list valid until the next mutating
// call; oversized documents are rejected with ErrTooLarge.
func (s *Store) PromoteEntry(doc Document, enteredAt time.Time, hits int64, now time.Time) ([]Eviction, error) {
	if doc.Size < 0 {
		return nil, fmt.Errorf("cache: negative size %d for %q", doc.Size, doc.URL)
	}
	if doc.Size > s.capacity {
		return nil, ErrTooLarge
	}
	if _, ok := s.entries[doc.URL]; ok {
		s.Touch(doc.URL, now)
		return nil, nil
	}
	evicted, err := s.makeRoomFor(doc.Size, now, doc.URL)
	if err != nil {
		return evicted, err
	}
	if hits < 0 {
		hits = 0
	}
	if enteredAt.IsZero() {
		enteredAt = now
	}
	s.insert(doc, enteredAt, now, hits+1)
	s.insertions++
	s.emit(Event{
		Kind: EventPromoteFromDisk, Doc: doc, At: now,
		EnteredAt: enteredAt, LastHit: now, Hits: hits + 1,
	})
	return evicted, nil
}

// TrackerState exports the expiration-age tracker for persistence.
func (s *Store) TrackerState() TrackerState { return s.ages.State() }

// RestoreTracker rebuilds the expiration-age tracker from a persisted
// state, restoring the contention signal across a restart. The window
// configuration always comes from this store's Config, never from disk: a
// store reopened with a different window (or restored from a state that
// recorded none) must not silently adopt the old shape. The persisted
// samples and cumulative totals are re-windowed into the configured one.
func (s *Store) RestoreTracker(st TrackerState) {
	st.Window = s.ages.Window()
	st.Horizon = s.ages.Horizon()
	s.ages = NewTrackerFromState(st)
}

// URLs returns the cached URLs in unspecified order.
func (s *Store) URLs() []string {
	out := make([]string, 0, len(s.entries))
	for u := range s.entries {
		out = append(out, u)
	}
	return out
}

// makeRoomFor evicts victims until size more bytes fit, listing them in
// s.evicted, whose previous contents are cleared so that no evicted
// document stays pinned. The document named skip (the one being inserted
// or refreshed) is never evicted: if the policy nominates it — LFU does
// when a refreshed document's hit count is still the lowest — it is
// sidelined from the policy for the duration and reinstated afterwards.
func (s *Store) makeRoomFor(size int64, now time.Time, skip string) ([]Eviction, error) {
	clear(s.evicted)
	s.evicted = s.evicted[:0]
	var sidelined *Entry
	for s.used+size > s.capacity {
		v := s.policy.Victim()
		if v == nil {
			if sidelined != nil {
				s.policy.Add(sidelined)
			}
			return s.evicted, fmt.Errorf("cache: cannot free %d bytes", size)
		}
		if v.Doc.URL == skip {
			s.policy.Remove(v)
			sidelined = v
			continue
		}
		s.evicted = append(s.evicted, s.evict(v, now))
	}
	if sidelined != nil {
		s.policy.Add(sidelined)
	}
	return s.evicted, nil
}

// evict removes v and records its expiration age.
func (s *Store) evict(v *Entry, now time.Time) Eviction {
	age := s.policy.ExpirationAge(v, now)
	if age < 0 {
		age = 0
	}
	s.policy.Remove(v)
	delete(s.entries, v.Doc.URL)
	s.used -= v.Doc.Size
	s.evictions++
	s.ages.Record(age, now)
	s.emit(Event{
		Kind: EventEvict, Doc: v.Doc, At: now, Age: age,
		EnteredAt: v.EnteredAt, LastHit: v.LastHit, Hits: v.Hits,
	})
	ev := Eviction{
		Doc:           v.Doc,
		Age:           age,
		ResidencyTime: now.Sub(v.EnteredAt),
	}
	s.release(v)
	return ev
}
