// Sharded store: the concurrency-safe cache used by the live node
// (internal/netnode). The deterministic single-threaded Store is the unit
// the simulator and the paper artifacts replay — it stays untouched;
// ShardedStore composes N of them behind per-shard mutexes so concurrent
// requests on different documents proceed in parallel, memcached-style,
// instead of serialising behind one lock around the whole cache.
//
// Sharding choices, and what they change:
//
//   - Documents map to shards by URL hash (FNV-1a, power-of-two mask), so
//     one document's lifecycle is always serialised by one lock.
//   - The byte budget is split evenly across shards; eviction pressure is
//     shard-local. With shards=1 behaviour is bit-identical to Store
//     (verified by TestShardedSingleShardMatchesStore); with more shards
//     the group-level hit/eviction behaviour converges statistically but
//     is not byte-identical, which is why the simulator keeps using Store.
//   - The node keeps one expiration-age tracker, not one per shard: the
//     cache expiration age (the paper's eq. 5, the placement signal) is
//     the mean over the last ExpirationWindow victims node-wide, whatever
//     the shard count. Shards are a lock count; they do not widen the
//     window. Each victim is recorded while its shard's lock is held.
package cache

import (
	"fmt"
	"sync"
	"time"
)

// StoreView is read access to a store's persistable state — what
// internal/persist captures into a snapshot. Both *Store and the
// consistent checkpoint view of a *ShardedStore implement it.
type StoreView interface {
	Entries() []Entry
	TrackerState() TrackerState
}

// DefaultShards is the shard count used when ShardedConfig.Shards is 0.
const DefaultShards = 8

// ShardedConfig configures a ShardedStore.
type ShardedConfig struct {
	// Shards is the number of shards; rounded up to a power of two.
	// 0 means DefaultShards.
	Shards int
	// Capacity is the total byte budget, split evenly across shards
	// (documents larger than one shard's slice are rejected, like
	// oversized documents on a plain Store). Must be positive and at
	// least Shards bytes.
	Capacity int64
	// NewPolicy builds one replacement policy per shard (policies are
	// stateful, so shards cannot share an instance). Nil means LRU.
	NewPolicy func() Policy
	// ExpirationWindow / ExpirationHorizon configure the node's one
	// expiration-age tracker, with Config's semantics. The window counts
	// victims node-wide: Shards does not change it.
	ExpirationWindow  int
	ExpirationHorizon time.Duration
}

// shard pairs one deterministic Store with its lock. Shards are allocated
// individually so neighbouring shard mutexes do not share a cache line.
type shard struct {
	mu    sync.Mutex
	store *Store
}

// ShardedStore is a concurrency-safe document cache: N independent Stores
// behind per-shard locks, presenting the single-store API the live node
// needs. All methods are safe for concurrent use.
type ShardedStore struct {
	shards []*shard
	mask   uint32
	// tiered marks the memory tier of a TieredStore with a disk tier. Its
	// evictions are not exits, so it records none: the tier controller
	// records the true exits in ages instead. Set by NewTiered before
	// traffic.
	tiered bool

	// agesMu guards ages, the node's one expiration-age tracker. It is
	// written only while some shard lock is held, so the all-shards
	// Checkpoint barrier sees each exit in both the entries and the
	// tracker, or in neither. Lock order: shard locks, then agesMu.
	agesMu sync.Mutex
	ages   *ExpAgeTracker
}

// NewSharded builds a ShardedStore from cfg.
func NewSharded(cfg ShardedConfig) (*ShardedStore, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cache: negative shard count %d", cfg.Shards)
	}
	n := cfg.Shards
	if n == 0 {
		n = DefaultShards
	}
	// Round up to a power of two so the hash maps with a mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	n = pow
	if cfg.Capacity < int64(n) {
		return nil, fmt.Errorf("cache: capacity %d cannot back %d shards", cfg.Capacity, n)
	}
	ages, err := newTracker(cfg.ExpirationWindow, cfg.ExpirationHorizon)
	if err != nil {
		return nil, err
	}
	newPolicy := cfg.NewPolicy
	if newPolicy == nil {
		newPolicy = func() Policy { return NewLRU() }
	}
	base, rem := cfg.Capacity/int64(n), cfg.Capacity%int64(n)
	s := &ShardedStore{shards: make([]*shard, n), mask: uint32(n - 1), ages: ages}
	for i := range s.shards {
		capacity := base
		if int64(i) < rem {
			capacity++
		}
		// A shard's own tracker is cumulative: it keeps no window.
		st, err := New(Config{Capacity: capacity, Policy: newPolicy()})
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{store: st}
	}
	return s, nil
}

// Shards returns the shard count.
func (s *ShardedStore) Shards() int { return len(s.shards) }

// shardFor maps url to its owning shard (FNV-1a over the URL bytes).
func (s *ShardedStore) shardFor(url string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(url); i++ {
		h ^= uint32(url[i])
		h *= prime32
	}
	return s.shards[h&s.mask]
}

// Get returns the cached document and records a hit (see Store.Get).
func (s *ShardedStore) Get(url string, now time.Time) (Document, bool) {
	sh := s.shardFor(url)
	sh.mu.Lock()
	doc, ok := sh.store.Get(url, now)
	sh.mu.Unlock()
	return doc, ok
}

// Peek returns the cached document without touching recency state.
func (s *ShardedStore) Peek(url string) (Document, bool) {
	sh := s.shardFor(url)
	sh.mu.Lock()
	doc, ok := sh.store.Peek(url)
	sh.mu.Unlock()
	return doc, ok
}

// Contains reports whether url is cached (the ICP answer path).
func (s *ShardedStore) Contains(url string) bool {
	sh := s.shardFor(url)
	sh.mu.Lock()
	ok := sh.store.Contains(url)
	sh.mu.Unlock()
	return ok
}

// Touch promotes url as if hit at now (the EA responder-side promotion).
func (s *ShardedStore) Touch(url string, now time.Time) bool {
	sh := s.shardFor(url)
	sh.mu.Lock()
	ok := sh.store.Touch(url, now)
	sh.mu.Unlock()
	return ok
}

// Put inserts doc, evicting within its shard as needed. The eviction list
// is the shard store's own (see Store.Put): the next mutation of that shard,
// by any goroutine, may overwrite it.
func (s *ShardedStore) Put(doc Document, now time.Time) ([]Eviction, error) {
	sh := s.shardFor(doc.URL)
	sh.mu.Lock()
	evicted, err := sh.store.Put(doc, now)
	s.recordEvictions(evicted, now)
	sh.mu.Unlock()
	return evicted, err
}

// PromoteEntry re-inserts a disk-promoted document into its shard with
// its carried metadata (see Store.PromoteEntry), evicting within the
// shard as needed. The eviction list is the shard's own, as Put's is.
func (s *ShardedStore) PromoteEntry(doc Document, enteredAt time.Time, hits int64, now time.Time) ([]Eviction, error) {
	sh := s.shardFor(doc.URL)
	sh.mu.Lock()
	evicted, err := sh.store.PromoteEntry(doc, enteredAt, hits, now)
	s.recordEvictions(evicted, now)
	sh.mu.Unlock()
	return evicted, err
}

// recordEvictions folds a shard's victims into the node's tracker, unless
// the tier controller records exits instead. The caller holds the
// evicting shard's lock.
func (s *ShardedStore) recordEvictions(evicted []Eviction, now time.Time) {
	if s.tiered {
		return
	}
	for _, ev := range evicted {
		s.recordExit(ev.Age, now)
	}
}

// recordExit folds one document that left the node into its tracker. The
// caller holds a shard lock (see agesMu).
func (s *ShardedStore) recordExit(age time.Duration, now time.Time) {
	s.agesMu.Lock()
	s.ages.Record(age, now)
	s.agesMu.Unlock()
}

// Remove deletes url without recording an eviction age.
func (s *ShardedStore) Remove(url string) bool {
	sh := s.shardFor(url)
	sh.mu.Lock()
	ok := sh.store.Remove(url)
	sh.mu.Unlock()
	return ok
}

// ExpirationAge returns the node's cache expiration age as of now: the
// windowed mean over its victims, or NoContention without contention
// evidence (see Store.ExpirationAge).
func (s *ShardedStore) ExpirationAge(now time.Time) time.Duration {
	s.agesMu.Lock()
	defer s.agesMu.Unlock()
	return s.ages.WindowedAt(now)
}

// sum adds up f over the shards, reading each under its lock.
func sum[T int | int64](s *ShardedStore, f func(*Store) T) (total T) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += f(sh.store)
		sh.mu.Unlock()
	}
	return total
}

// Capacity returns the total configured byte budget.
func (s *ShardedStore) Capacity() int64 { return sum(s, (*Store).Capacity) }

// Used returns the bytes currently occupied across all shards.
func (s *ShardedStore) Used() int64 { return sum(s, (*Store).Used) }

// Len returns the number of cached documents.
func (s *ShardedStore) Len() int { return sum(s, (*Store).Len) }

// Evictions returns total contention evictions across all shards.
func (s *ShardedStore) Evictions() int64 { return sum(s, (*Store).Evictions) }

// Insertions returns total document insertions across all shards.
func (s *ShardedStore) Insertions() int64 { return sum(s, (*Store).Insertions) }

// Entry exposes a copy of the metadata for url, for tests and inspection.
func (s *ShardedStore) Entry(url string) (Entry, bool) {
	sh := s.shardFor(url)
	sh.mu.Lock()
	e, ok := sh.store.Entry(url)
	sh.mu.Unlock()
	return e, ok
}

// URLs returns the cached URLs in unspecified order. Shards are read one
// at a time, so the set is only instant-consistent per shard — fine for
// digests and inspection, not a checkpoint primitive (see Checkpoint).
func (s *ShardedStore) URLs() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		out = append(out, sh.store.URLs()...)
		sh.mu.Unlock()
	}
	return out
}

// TrackerState exports the node's expiration-age tracker for persistence.
func (s *ShardedStore) TrackerState() TrackerState {
	s.agesMu.Lock()
	defer s.agesMu.Unlock()
	return s.ages.State()
}

// SetEventSink installs fn as every shard's mutation observer; nil
// removes it. Events are delivered synchronously under the owning shard's
// lock, so per-document event order is preserved; events for documents in
// different shards interleave in real-time order, which journal replay is
// insensitive to (it folds per-URL histories plus an order-insensitive
// eviction-age mean).
func (s *ShardedStore) SetEventSink(fn func(Event)) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.store.SetEventSink(fn)
		sh.mu.Unlock()
	}
}

// RestoreEntry reinserts a recovered document into its shard (see
// Store.RestoreEntry). An entry that no longer fits its shard's slice of
// the budget is an error the caller counts as skipped.
func (s *ShardedStore) RestoreEntry(doc Document, enteredAt, lastHit time.Time, hits int64) error {
	sh := s.shardFor(doc.URL)
	sh.mu.Lock()
	err := sh.store.RestoreEntry(doc, enteredAt, lastHit, hits)
	sh.mu.Unlock()
	return err
}

// RestoreTracker rebuilds the node's tracker from a persisted state,
// re-windowed into the configured shape (see Store.RestoreTracker).
func (s *ShardedStore) RestoreTracker(st TrackerState) {
	s.agesMu.Lock()
	defer s.agesMu.Unlock()
	st.Window, st.Horizon = s.ages.Window(), s.ages.Horizon()
	s.ages = NewTrackerFromState(st)
}

// checkpointView is the consistent all-shards-locked view Checkpoint
// hands to its callback. It reads the shards without locking — the locks
// are already held for the duration of the callback.
type checkpointView struct{ s *ShardedStore }

// Entries implements StoreView at the checkpoint instant.
func (v checkpointView) Entries() []Entry {
	var out []Entry
	for _, sh := range v.s.shards {
		out = append(out, sh.store.Entries()...)
	}
	return out
}

// TrackerState implements StoreView at the checkpoint instant.
func (v checkpointView) TrackerState() TrackerState { return v.s.TrackerState() }

// Checkpoint locks every shard — a full stall of the request path — and
// runs capture with a consistent point-in-time view of the whole store.
// This is the one consistent instant at which a persistence checkpoint
// images the entries and rotates its journal: every event emitted before
// the capture is strictly before it, every later event strictly after.
// capture must not call back into the ShardedStore's locking API.
func (s *ShardedStore) Checkpoint(capture func(view StoreView) error) error {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	return capture(checkpointView{s})
}
