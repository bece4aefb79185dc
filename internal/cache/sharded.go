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
//   - Each shard keeps its own expiration-age tracker; the group-level
//     cache expiration age (the paper's placement signal) is the merged
//     mean over every shard's windowed victims, cached in an atomic and
//     invalidated on eviction rather than re-averaged on every miss.
package cache

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

// eaMaxStale bounds how long the cached merged expiration age may be
// served without recomputation. Evictions invalidate the cache
// immediately; this bound only covers time-horizon trackers, whose
// windowed mean also decays as samples age out of the horizon. Horizons
// are hours (DefaultExpirationHorizon) while the bound is milliseconds,
// so the staleness is negligible against the signal's own time constant.
const eaMaxStale = 100 * time.Millisecond

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
	// ExpirationWindow / ExpirationHorizon configure each shard's
	// expiration-age tracker, with Config's semantics.
	ExpirationWindow  int
	ExpirationHorizon time.Duration
}

// shard pairs one deterministic Store with its lock. Shards are allocated
// individually so neighbouring shard mutexes do not share a cache line.
type shard struct {
	mu    sync.Mutex
	store *Store
}

// eaCache is one cached merged expiration age: the value and the caller
// timestamp it was computed at.
type eaCache struct {
	age time.Duration
	at  time.Time
}

// ShardedStore is a concurrency-safe document cache: N independent Stores
// behind per-shard locks, presenting the single-store API the live node
// needs. All methods are safe for concurrent use.
type ShardedStore struct {
	shards []*shard
	mask   uint32
	// single marks the one-shard store: expiration-age reads delegate
	// straight to the shard so results are bit-identical with a plain
	// Store.
	single bool

	ea atomic.Pointer[eaCache]
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
	newPolicy := cfg.NewPolicy
	if newPolicy == nil {
		newPolicy = func() Policy { return NewLRU() }
	}
	base, rem := cfg.Capacity/int64(n), cfg.Capacity%int64(n)
	s := &ShardedStore{shards: make([]*shard, n), mask: uint32(n - 1), single: n == 1}
	for i := range s.shards {
		capacity := base
		if int64(i) < rem {
			capacity++
		}
		st, err := New(Config{
			Capacity:          capacity,
			Policy:            newPolicy(),
			ExpirationWindow:  cfg.ExpirationWindow,
			ExpirationHorizon: cfg.ExpirationHorizon,
		})
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

// Put inserts doc, evicting within its shard as needed. An eviction
// invalidates the cached group expiration age so the next placement
// decision sees the new contention evidence.
func (s *ShardedStore) Put(doc Document, now time.Time) ([]Eviction, error) {
	sh := s.shardFor(doc.URL)
	sh.mu.Lock()
	evicted, err := sh.store.Put(doc, now)
	sh.mu.Unlock()
	if len(evicted) > 0 {
		s.ea.Store(nil)
	}
	return evicted, err
}

// PromoteEntry re-inserts a disk-promoted document into its shard with
// its carried metadata (see Store.PromoteEntry), evicting within the
// shard as needed.
func (s *ShardedStore) PromoteEntry(doc Document, enteredAt time.Time, hits int64, now time.Time) ([]Eviction, error) {
	sh := s.shardFor(doc.URL)
	sh.mu.Lock()
	evicted, err := sh.store.PromoteEntry(doc, enteredAt, hits, now)
	sh.mu.Unlock()
	if len(evicted) > 0 {
		s.ea.Store(nil)
	}
	return evicted, err
}

// Remove deletes url without recording an eviction age.
func (s *ShardedStore) Remove(url string) bool {
	sh := s.shardFor(url)
	sh.mu.Lock()
	ok := sh.store.Remove(url)
	sh.mu.Unlock()
	return ok
}

// ExpirationAge returns the group-level cache expiration age as of now:
// the mean document expiration age over every shard's windowed victims.
// The merged value is cached in an atomic — a miss storm reads one
// pointer instead of re-averaging N trackers — and recomputed after an
// eviction (the cache is invalidated) or when the cached value is older
// than eaMaxStale.
func (s *ShardedStore) ExpirationAge(now time.Time) time.Duration {
	if c := s.ea.Load(); c != nil && !now.Before(c.at) && now.Sub(c.at) < eaMaxStale {
		return c.age
	}
	age := s.computeExpirationAge(now)
	s.ea.Store(&eaCache{age: age, at: now})
	return age
}

// computeExpirationAge merges the per-shard windowed stats. The one-shard
// case delegates to the shard's own ExpirationAge so the result is
// bit-identical with a plain Store (no float round trip).
func (s *ShardedStore) computeExpirationAge(now time.Time) time.Duration {
	if s.single {
		sh := s.shards[0]
		sh.mu.Lock()
		age := sh.store.ExpirationAge(now)
		sh.mu.Unlock()
		return age
	}
	var (
		sum   float64
		count int64
	)
	for _, sh := range s.shards {
		sh.mu.Lock()
		ss, sc := sh.store.ages.WindowedStatsAt(now)
		sh.mu.Unlock()
		sum += ss
		count += sc
	}
	if count == 0 {
		return NoContention
	}
	secs := sum / float64(count)
	if secs >= (float64(NoContention) / float64(time.Second)) {
		return NoContention
	}
	return time.Duration(secs * float64(time.Second))
}

// Capacity returns the total configured byte budget.
func (s *ShardedStore) Capacity() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.store.Capacity()
	}
	return total
}

// Used returns the bytes currently occupied across all shards.
func (s *ShardedStore) Used() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.store.Used()
		sh.mu.Unlock()
	}
	return total
}

// Len returns the number of cached documents.
func (s *ShardedStore) Len() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.store.Len()
		sh.mu.Unlock()
	}
	return total
}

// Evictions returns total contention evictions across all shards.
func (s *ShardedStore) Evictions() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.store.Evictions()
		sh.mu.Unlock()
	}
	return total
}

// Insertions returns total document insertions across all shards.
func (s *ShardedStore) Insertions() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.store.Insertions()
		sh.mu.Unlock()
	}
	return total
}

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

// TrackerState exports the merged expiration-age tracker state; same
// per-shard consistency caveat as URLs.
func (s *ShardedStore) TrackerState() TrackerState {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	return s.trackerStateLocked()
}

// trackerStateLocked merges the per-shard tracker states into one. The
// caller holds every shard lock. Samples merge in ascending eviction
// time; totals sum exactly, so a capture → restore → capture round trip
// preserves the cumulative signal.
func (s *ShardedStore) trackerStateLocked() TrackerState {
	if s.single {
		return s.shards[0].store.TrackerState()
	}
	merged := TrackerState{
		Window:  s.shards[0].store.ages.Window(),
		Horizon: s.shards[0].store.ages.Horizon(),
	}
	for _, sh := range s.shards {
		st := sh.store.TrackerState()
		merged.TotalSumSeconds += st.TotalSumSeconds
		merged.TotalCount += st.TotalCount
		merged.Samples = append(merged.Samples, st.Samples...)
	}
	sort.SliceStable(merged.Samples, func(i, j int) bool {
		return merged.Samples[i].At.Before(merged.Samples[j].At)
	})
	return merged
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
	s.ea.Store(nil)
	return err
}

// RestoreTracker rebuilds the expiration-age trackers from a persisted
// (merged) state. With one shard the state passes through unchanged —
// exactly Store.RestoreTracker. With more, samples are dealt round-robin
// (each shard receives an ascending-time subsequence) and the cumulative
// totals are partitioned so their sum is preserved: the merged windowed
// signal and merged totals match the captured state.
func (s *ShardedStore) RestoreTracker(st TrackerState) {
	defer s.ea.Store(nil)
	if s.single {
		sh := s.shards[0]
		sh.mu.Lock()
		sh.store.RestoreTracker(st)
		sh.mu.Unlock()
		return
	}
	n := len(s.shards)
	parts := make([]TrackerState, n)
	for i, sample := range st.Samples {
		p := &parts[i%n]
		p.Samples = append(p.Samples, sample)
	}
	var restSum float64
	var restCount int64
	for i := 1; i < n; i++ {
		for _, sample := range parts[i].Samples {
			parts[i].TotalSumSeconds += sample.Age.Seconds()
		}
		parts[i].TotalCount = int64(len(parts[i].Samples))
		restSum += parts[i].TotalSumSeconds
		restCount += parts[i].TotalCount
	}
	parts[0].TotalSumSeconds = st.TotalSumSeconds - restSum
	parts[0].TotalCount = st.TotalCount - restCount
	if parts[0].TotalSumSeconds < 0 {
		parts[0].TotalSumSeconds = 0
	}
	if parts[0].TotalCount < int64(len(parts[0].Samples)) {
		parts[0].TotalCount = int64(len(parts[0].Samples))
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		sh.store.RestoreTracker(parts[i])
		sh.mu.Unlock()
	}
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
func (v checkpointView) TrackerState() TrackerState { return v.s.trackerStateLocked() }

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
