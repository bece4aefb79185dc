// Tiered storage: the EA-aware controller that joins the sharded memory
// tier to a disk tier (internal/blob) and presents the two as one logical
// store to the node.
//
// The controller applies the paper's placement logic to the tier boundary
// exactly as the EA scheme applies it to the cache group: a memory
// eviction is demoted to disk only when the victim's document expiration
// age (eq. 2/3) is below the disk tier's cache expiration age (eq. 5) —
// the document would outlive the disk tier's current contention level, so
// spilling it is worthwhile. A disk tier that has evicted nothing reports
// NoContention and accepts every demotion. Disk hits re-promote into
// memory on access, preserving the entry's metadata (entry time and hit
// history survive the round trip; the promoting access counts as a hit).
//
// Two expiration-age signals coexist, one per decision:
//
//   - the disk tier's own tracker prices demotion admission;
//   - the memory store's tracker, the node's one advertised signal, is fed
//     by the controller with documents that truly left the node (memory
//     evictions that were dropped, and disk evictions): a demotion is a
//     tier move, not an exit, so it records nothing.
//
// Demotions happen inside the memory store's event sink, under the owning
// shard's lock: the controller swallows the inner EventEvict and emits
// either EventDemote (tier move) or the EventEvict itself (true exit), so
// the per-URL event order the journal replays is exactly the order the
// logical store mutated. Disk residency itself is recorded once, by the
// disk tier's own index: the journal only learns that the document left
// memory. Blob I/O under a shard lock is deliberate — it
// serialises the victim's lifecycle and it is off the memory-hit hot
// path, which does not take the disk tier into account at all: with no
// disk tier configured every method is a direct pass-through and the
// memory-hit benchmark is byte-identical to the plain sharded store.
package cache

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DiskEntry is a document resident in the disk tier together with the
// metadata that must survive the demote→promote round trip.
type DiskEntry struct {
	Doc Document
	// EnteredAt is the original memory-tier entry time, preserved across
	// the round trip.
	EnteredAt time.Time
	// LastHit is the last hit time as of demotion (promotions refresh it).
	LastHit time.Time
	// Hits is the hit counter as of demotion.
	Hits int64
	// Sum is the CRC32C of the stored body, assigned by the disk tier at
	// admission and verified on every read.
	Sum uint32
}

// DiskEviction records one document the disk tier evicted to make room,
// with its document expiration age (now - LastHit; the disk tier is LRU).
type DiskEviction struct {
	Entry DiskEntry
	Age   time.Duration
}

// DiskTier is the disk blob store as the tier controller sees it
// (implemented by internal/blob.Store). Implementations must be safe for
// concurrent use and must tolerate calls after Close as no-ops: a
// promotion in flight during shutdown may complete its bookkeeping late.
type DiskTier interface {
	// Admit stores e's body (read fully from body) and returns the entry
	// with its checksum filled in, plus any entries evicted to make room.
	Admit(e DiskEntry, body io.Reader, now time.Time) (DiskEntry, []DiskEviction, error)
	// Verify reads url's body through its checksum and returns the entry
	// and whether url was resident. An error means the blob was unreadable
	// or corrupt (the tier drops a corrupt one and counts the failure).
	Verify(url string) (DiskEntry, bool, error)
	// Remove drops url, returning the removed entry.
	Remove(url string) (DiskEntry, bool)
	// Contains reports whether url is disk-resident.
	Contains(url string) bool
	// Peek returns the entry metadata without touching recency state.
	Peek(url string) (DiskEntry, bool)
	// ExpirationAge is the disk tier's cache expiration age (eq. 5 over
	// its own evictions) — the admission price for demotions.
	ExpirationAge(now time.Time) time.Duration
	Len() int
	Used() int64
	Capacity() int64
	URLs() []string
	// ChecksumFailures counts blobs that failed verification on read.
	ChecksumFailures() int64
	// Sync flushes the blob index to stable storage.
	Sync() error
	Close() error
}

// DemotePolicy selects how the controller prices demotions.
type DemotePolicy int

const (
	// DemoteEA demotes a memory victim only when its document expiration
	// age is strictly below the disk tier's expiration age (the paper's
	// placement rule applied to the tier boundary). The default.
	DemoteEA DemotePolicy = iota
	// DemoteAlways spills every memory victim to disk (a blind LRU
	// spill, for comparison runs).
	DemoteAlways
)

// ParseDemotePolicy parses the -disk-demote flag values.
func ParseDemotePolicy(s string) (DemotePolicy, error) {
	switch s {
	case "", "ea":
		return DemoteEA, nil
	case "always":
		return DemoteAlways, nil
	default:
		return 0, fmt.Errorf("cache: unknown demote policy %q (want ea or always)", s)
	}
}

// ParseBytes parses the -capacity, -disk-capacity and -aggregate flag
// values: a positive whole number with an optional B, KB, MB or GB suffix
// (binary multiples, any case), such as "4096", "512B", "64KB" or "1GB".
// Anything else, trailing text and fractions included, is an error, as is
// a size that overflows int64.
func ParseBytes(s string) (int64, error) {
	num := strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(num, "GB"):
		mult, num = 1<<30, strings.TrimSuffix(num, "GB")
	case strings.HasSuffix(num, "MB"):
		mult, num = 1<<20, strings.TrimSuffix(num, "MB")
	case strings.HasSuffix(num, "KB"):
		mult, num = 1<<10, strings.TrimSuffix(num, "KB")
	case strings.HasSuffix(num, "B"):
		num = strings.TrimSuffix(num, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("cache: bad size %q (want a positive whole number of B, KB, MB or GB)", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("cache: size %q overflows int64", s)
	}
	return n * mult, nil
}

// String implements fmt.Stringer.
func (p DemotePolicy) String() string {
	if p == DemoteAlways {
		return "always"
	}
	return "ea"
}

// TieredConfig configures a TieredStore.
type TieredConfig struct {
	// Memory is the sharded memory tier. Required.
	Memory *ShardedStore
	// Disk is the blob tier; nil builds a pure pass-through (every method
	// delegates to Memory with no added cost).
	Disk DiskTier
	// Demote selects the demotion admission rule. Defaults to DemoteEA.
	Demote DemotePolicy
	// Body supplies the body bytes for a document being demoted (the
	// node's bodies are synthetic). Nil means doc.Size zero bytes.
	Body func(doc Document) io.Reader
}

// TierCounters are the controller's monotonic counters, for metrics.
type TierCounters struct {
	// Demotions is the number of memory victims moved to disk.
	Demotions int64
	// DemotionDrops is the number of memory victims the EA rule (or a
	// disk-tier failure) dropped instead of demoting.
	DemotionDrops int64
	// Promotions is the number of disk hits moved back into memory.
	Promotions int64
	// DiskEvictions is the number of documents the disk tier evicted.
	DiskEvictions int64
	// ChecksumFailures is the number of blobs that failed verification.
	ChecksumFailures int64
}

// TieredStore joins the sharded memory tier and an optional disk tier
// behind the single logical store surface internal/netnode consumes.
// All methods are safe for concurrent use.
type TieredStore struct {
	mem    *ShardedStore
	disk   DiskTier
	demote DemotePolicy
	body   func(Document) io.Reader

	// extSink is the external event sink (persist/obs/digest chain). The
	// controller's internal transformer runs under shard locks and reads
	// it through the atomic so SetEventSink stays safe mid-traffic.
	extSink atomic.Pointer[func(Event)]

	demotions     atomic.Int64
	demotionDrops atomic.Int64
	promotions    atomic.Int64
	diskEvictions atomic.Int64
}

// NewTiered builds a TieredStore from cfg.
func NewTiered(cfg TieredConfig) (*TieredStore, error) {
	if cfg.Memory == nil {
		return nil, fmt.Errorf("cache: tiered store requires a memory tier")
	}
	t := &TieredStore{mem: cfg.Memory, disk: cfg.Disk, demote: cfg.Demote, body: cfg.Body}
	if t.disk != nil {
		if t.body == nil {
			t.body = zeroBodyOf
		}
		// From here the memory store records no evictions of its own:
		// memEvent records the true exits into its tracker.
		cfg.Memory.tiered = true
		cfg.Memory.SetEventSink(t.memEvent)
	}
	return t, nil
}

// Disk exposes the disk tier (nil without one) for introspection: the
// admin surface type-asserts it for operations beyond the DiskTier
// interface, like a full checksum verification pass.
func (t *TieredStore) Disk() DiskTier { return t.disk }

// forward delivers ev to the external sink, if any.
func (t *TieredStore) forward(ev Event) {
	if p := t.extSink.Load(); p != nil && *p != nil {
		(*p)(ev)
	}
}

// memEvent is the transformer installed as the memory tier's sink. It
// runs synchronously under the owning shard's lock; on eviction it
// decides the victim's fate and rewrites the event stream accordingly.
func (t *TieredStore) memEvent(ev Event) {
	if ev.Kind != EventEvict {
		t.forward(ev)
		return
	}
	now := ev.At
	if t.shouldDemote(ev.Age, now) {
		de := DiskEntry{Doc: ev.Doc, EnteredAt: ev.EnteredAt, LastHit: ev.LastHit, Hits: ev.Hits}
		body := t.body(ev.Doc)
		_, evicted, err := t.disk.Admit(de, body, now)
		if z, ok := body.(*zeroBody); ok { // Admit is done with it
			zeroBodies.Put(z)
		}
		if err == nil {
			t.demotions.Add(1)
			ev.Kind = EventDemote // the same document, metadata and age
			t.forward(ev)
			t.diskExits(evicted, now)
			return
		}
		// Admission failed (oversized for the disk tier, I/O error, or
		// the tier is closed): fall through to a true exit. Whatever the
		// tier evicted before it failed has left it all the same.
		t.diskExits(evicted, now)
	}
	t.demotionDrops.Add(1)
	t.mem.recordExit(ev.Age, now)
	t.forward(ev)
}

// shouldDemote applies the demotion admission rule: the victim must
// outlive the disk tier's expiration age (strict, like the paper's
// placement rule — ties reject).
func (t *TieredStore) shouldDemote(victimAge time.Duration, now time.Time) bool {
	if t.demote == DemoteAlways {
		return true
	}
	return victimAge < t.disk.ExpirationAge(now)
}

// diskExits records documents the disk tier evicted: true exits from the
// logical store, surfaced as disk-tier EventEvicts so the digest stops
// advertising them and replay feeds the tracker.
func (t *TieredStore) diskExits(evs []DiskEviction, now time.Time) {
	for _, de := range evs {
		t.diskEvictions.Add(1)
		t.mem.recordExit(de.Age, now)
		t.forward(Event{
			Kind: EventEvict, Tier: TierDisk, Doc: de.Entry.Doc, At: now, Age: de.Age,
			EnteredAt: de.Entry.EnteredAt, LastHit: de.Entry.LastHit, Hits: de.Entry.Hits,
		})
	}
}

// Get returns the document and records a hit. A memory miss consults the
// disk tier and re-promotes on a disk hit.
func (t *TieredStore) Get(url string, now time.Time) (Document, bool) {
	doc, ok := t.mem.Get(url, now)
	if ok || t.disk == nil {
		return doc, ok
	}
	return t.promoteFromDisk(url, now)
}

// promoteFromDisk moves a disk-resident document back into memory: the
// blob's checksum is verified (bodies are synthetic, so the bytes are read
// only for that), the entry re-enters the memory tier with its metadata
// preserved, and the blob is dropped afterwards (recovery prefers the
// memory copy during the overlap window). A document in transition is
// always in at least one tier — promotion inserts before it removes,
// demotion runs under the shard lock — so when the disk tier does not have
// it either, a racing promotion has put it in memory since the caller
// missed there.
func (t *TieredStore) promoteFromDisk(url string, now time.Time) (Document, bool) {
	de, ok, err := t.disk.Verify(url)
	if !ok {
		return t.mem.Get(url, now)
	}
	if err != nil {
		// Corrupt blob: the disk tier already dropped it and counted the
		// failure; tell observers the URL left the logical store.
		t.forward(Event{Kind: EventRemove, Tier: TierDisk, Doc: de.Doc})
		return Document{}, false
	}
	if _, err := t.mem.PromoteEntry(de.Doc, de.EnteredAt, de.Hits, now); err != nil {
		// The document does not fit the memory tier (oversized for its
		// shard slice). Serve it from disk without promoting.
		return de.Doc, true
	}
	if _, ok := t.disk.Remove(url); ok { // of racing promoters, one removes
		t.promotions.Add(1)
	}
	return de.Doc, true
}

// Peek returns the document without touching recency state, from either
// tier.
func (t *TieredStore) Peek(url string) (Document, bool) {
	doc, ok := t.mem.Peek(url)
	if ok || t.disk == nil {
		return doc, ok
	}
	de, ok := t.disk.Peek(url)
	return de.Doc, ok
}

// Contains reports whether url is resident in either tier.
func (t *TieredStore) Contains(url string) bool {
	return t.mem.Contains(url) || t.disk != nil && t.disk.Contains(url)
}

// Touch promotes url as if hit at now. A disk-resident document is
// re-promoted into memory (the touch is the promoting hit).
func (t *TieredStore) Touch(url string, now time.Time) bool {
	if ok := t.mem.Touch(url, now); ok || t.disk == nil {
		return ok
	}
	_, ok := t.promoteFromDisk(url, now)
	return ok
}

// Put inserts doc into the memory tier. A stale disk copy of the same URL
// (possible when a push races a demotion) is dropped first so the tiers
// stay exclusive: the index del lands before the journal's insert. The
// eviction list is the memory shard's own, as ShardedStore.Put's is.
func (t *TieredStore) Put(doc Document, now time.Time) ([]Eviction, error) {
	if t.disk != nil && t.disk.Contains(doc.URL) {
		if de, ok := t.disk.Remove(doc.URL); ok {
			t.forward(Event{Kind: EventRemove, Tier: TierDisk, Doc: de.Doc})
		}
	}
	return t.mem.Put(doc, now)
}

// Remove deletes url from both tiers.
func (t *TieredStore) Remove(url string) bool {
	ok := t.mem.Remove(url)
	if t.disk != nil {
		if de, ok2 := t.disk.Remove(url); ok2 {
			t.forward(Event{Kind: EventRemove, Tier: TierDisk, Doc: de.Doc})
			return true
		}
	}
	return ok
}

// ExpirationAge returns the node's advertised cache expiration age, the
// memory store's tracker. With a disk tier only documents that truly left
// the node feed it.
func (t *TieredStore) ExpirationAge(now time.Time) time.Duration {
	return t.mem.ExpirationAge(now)
}

// Capacity returns the total byte budget across both tiers.
func (t *TieredStore) Capacity() int64 {
	if t.disk == nil {
		return t.mem.Capacity()
	}
	return t.mem.Capacity() + t.disk.Capacity()
}

// Used returns the bytes occupied across both tiers.
func (t *TieredStore) Used() int64 {
	if t.disk == nil {
		return t.mem.Used()
	}
	return t.mem.Used() + t.disk.Used()
}

// Len returns the number of documents across both tiers.
func (t *TieredStore) Len() int {
	if t.disk == nil {
		return t.mem.Len()
	}
	return t.mem.Len() + t.disk.Len()
}

// TierCounters returns the controller's monotonic counters.
func (t *TieredStore) TierCounters() TierCounters {
	c := TierCounters{
		Demotions:     t.demotions.Load(),
		DemotionDrops: t.demotionDrops.Load(),
		Promotions:    t.promotions.Load(),
		DiskEvictions: t.diskEvictions.Load(),
	}
	if t.disk != nil {
		c.ChecksumFailures = t.disk.ChecksumFailures()
	}
	return c
}

// Evictions counts replacement-policy evictions across both tiers.
func (t *TieredStore) Evictions() int64 {
	return t.mem.Evictions() + t.diskEvictions.Load()
}

// URLs returns every resident URL across both tiers (the union migration
// walks and the digest advertises). Transient duplicates from an
// in-flight promotion are collapsed.
func (t *TieredStore) URLs() []string {
	m := t.mem.URLs()
	if t.disk == nil {
		return m
	}
	d := t.disk.URLs()
	if len(d) == 0 {
		return m
	}
	seen := make(map[string]struct{}, len(m))
	for _, u := range m {
		seen[u] = struct{}{}
	}
	for _, u := range d {
		if _, ok := seen[u]; !ok {
			m = append(m, u)
		}
	}
	return m
}

// Entry returns the metadata for url from whichever tier holds it.
func (t *TieredStore) Entry(url string) (Entry, bool) {
	if e, ok := t.mem.Entry(url); ok || t.disk == nil {
		return e, ok
	}
	de, ok := t.disk.Peek(url)
	if !ok {
		return Entry{}, false
	}
	return Entry{Doc: de.Doc, EnteredAt: de.EnteredAt, LastHit: de.LastHit, Hits: de.Hits}, true
}

// SetEventSink installs fn as the logical store's mutation observer. With
// no disk tier this is the memory tier's sink directly (zero added cost);
// with one, fn receives the controller's rewritten event stream.
func (t *TieredStore) SetEventSink(fn func(Event)) {
	if t.disk == nil {
		t.mem.SetEventSink(fn)
		return
	}
	if fn == nil {
		t.extSink.Store(nil)
		return
	}
	t.extSink.Store(&fn)
}

// RestoreEntry reinserts a recovered document into the memory tier. This
// is the one rule that joins the two logs at recovery: the disk tier has
// already recovered itself from its own index, and a URL the journal puts
// in memory too (a demotion whose journal frame, or a promotion whose
// index del, never landed) keeps the memory copy and drops the blob.
func (t *TieredStore) RestoreEntry(doc Document, enteredAt, lastHit time.Time, hits int64) error {
	err := t.mem.RestoreEntry(doc, enteredAt, lastHit, hits)
	if err == nil && t.disk != nil {
		t.disk.Remove(doc.URL)
	}
	return err
}

// TrackerState exports the advertised tracker for persistence.
func (t *TieredStore) TrackerState() TrackerState { return t.mem.TrackerState() }

// RestoreTracker rebuilds the advertised tracker from a persisted state,
// re-windowed into the configured shape (see Store.RestoreTracker).
func (t *TieredStore) RestoreTracker(st TrackerState) { t.mem.RestoreTracker(st) }

// Checkpoint runs capture with a consistent point-in-time view of the
// memory tier and the advertised tracker. All memory shard locks are
// held, which also excludes every tier transition (demotions and
// promotions mutate under a shard lock); the disk tier is not touched, so
// the barrier's length does not depend on how much it holds: its index
// is its own durable record.
func (t *TieredStore) Checkpoint(capture func(view StoreView) error) error {
	return t.mem.Checkpoint(capture)
}

// Quiesce blocks until every in-flight tier transition has completed and
// flushes the blob index to stable storage. Transitions mutate under
// shard locks, so taking the full checkpoint barrier is the flush: any
// demotion that began before Quiesce has finished its blob and index
// writes by the time the barrier is acquired. Node.Close runs this
// before the journal's final rotate so every demotion the final snapshot
// leaves out of memory is backed by a durable index frame.
func (t *TieredStore) Quiesce() error {
	if t.disk == nil {
		return nil
	}
	if err := t.mem.Checkpoint(func(StoreView) error { return nil }); err != nil {
		return err
	}
	return t.disk.Sync()
}

// CloseDisk closes the disk tier (final index fsync). Safe without one.
func (t *TieredStore) CloseDisk() error {
	if t.disk == nil {
		return nil
	}
	return t.disk.Close()
}

// zeroBody reads as its count of zero bytes.
type zeroBody int64

func (z *zeroBody) Read(p []byte) (int, error) {
	if *z <= 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), int64(*z))]
	clear(p)
	*z -= zeroBody(len(p))
	return len(p), nil
}

var zeroBodies = sync.Pool{New: func() any { return new(zeroBody) }}

// zeroBodyOf is the default demotion body source: doc.Size zero bytes (the
// node's synthetic bodies), in a reader memEvent returns to zeroBodies.
func zeroBodyOf(doc Document) io.Reader {
	z := zeroBodies.Get().(*zeroBody)
	*z = zeroBody(doc.Size)
	return z
}
