package cache_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/dist"
	"eacache/internal/race"
)

// t0 is the workload epoch.
func t0() time.Time { return time.Unix(1_700_000_000, 0) }

// docBody derives a deterministic pseudorandom body for url — the
// round-trip tests need bodies that are NOT all zeros so a byte mismatch
// is detectable.
func docBody(url string, size int64) []byte {
	h := sha256.Sum256([]byte(url))
	out := make([]byte, size)
	for i := range out {
		out[i] = h[i%len(h)] ^ byte(i)
	}
	return out
}

// bodyFn is the TieredConfig.Body source over docBody.
func bodyFn(doc cache.Document) io.Reader {
	return bytes.NewReader(docBody(doc.URL, doc.Size))
}

// newTiered builds a single-shard memory tier over a blob tier in a
// temp dir, with an event recorder attached.
func newTiered(t *testing.T, memCap, diskCap int64, pol cache.DemotePolicy) (*cache.TieredStore, *blob.Store, *[]cache.Event) {
	t.Helper()
	ts, _, disk, events := newTieredMem(t, memCap, diskCap, pol)
	return ts, disk, events
}

// newTieredMem is newTiered for the tests that also look at the memory
// tier directly.
func newTieredMem(t *testing.T, memCap, diskCap int64, pol cache.DemotePolicy) (*cache.TieredStore, *cache.ShardedStore, *blob.Store, *[]cache.Event) {
	t.Helper()
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: memCap, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blob.Open(blob.Config{Dir: t.TempDir(), Capacity: diskCap, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk, Demote: pol, Body: bodyFn})
	if err != nil {
		t.Fatal(err)
	}
	events := &[]cache.Event{}
	ts.SetEventSink(func(ev cache.Event) { *events = append(*events, ev) })
	t.Cleanup(func() { disk.Close() })
	return ts, mem, disk, events
}

// TestTieredPassthroughMatchesSharded: with no disk tier every operation
// and signal must match the bare sharded store exactly.
func TestTieredPassthroughMatchesSharded(t *testing.T) {
	mkPair := func() (*cache.ShardedStore, *cache.TieredStore) {
		a, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 4096, ExpirationWindow: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 4096, ExpirationWindow: 8})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := cache.NewTiered(cache.TieredConfig{Memory: b})
		if err != nil {
			t.Fatal(err)
		}
		return a, ts
	}
	plain, tiered := mkPair()
	var plainEvents, tieredEvents []cache.Event
	plain.SetEventSink(func(ev cache.Event) { plainEvents = append(plainEvents, ev) })
	tiered.SetEventSink(func(ev cache.Event) { tieredEvents = append(tieredEvents, ev) })

	rng := dist.NewRNG(42)
	now := t0()
	for i := 0; i < 2000; i++ {
		now = now.Add(time.Duration(1+rng.Intn(500)) * time.Millisecond)
		url := fmt.Sprintf("http://pt/%d", rng.Intn(30))
		switch rng.Intn(10) {
		case 0:
			plain.Remove(url)
			tiered.Remove(url)
		case 1, 2:
			plain.Get(url, now)
			tiered.Get(url, now)
		case 3:
			plain.Touch(url, now)
			tiered.Touch(url, now)
		default:
			size := int64(64 + rng.Intn(1024))
			plain.Put(cache.Document{URL: url, Size: size}, now)
			tiered.Put(cache.Document{URL: url, Size: size}, now)
		}
	}
	if plain.Len() != tiered.Len() || plain.Used() != tiered.Used() {
		t.Fatalf("len/used diverged: %d/%d vs %d/%d", plain.Len(), plain.Used(), tiered.Len(), tiered.Used())
	}
	if a, b := plain.ExpirationAge(now), tiered.ExpirationAge(now); a != b {
		t.Fatalf("expiration age diverged: %v vs %v", a, b)
	}
	if len(plainEvents) != len(tieredEvents) {
		t.Fatalf("event counts diverged: %d vs %d", len(plainEvents), len(tieredEvents))
	}
	for i := range plainEvents {
		if plainEvents[i] != tieredEvents[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, plainEvents[i], tieredEvents[i])
		}
	}
	if tiered.Disk() != nil {
		t.Fatal("passthrough store claims a disk tier")
	}
}

// TestTieredPassthroughGetAllocs is the hot-path budget of the tier
// facade: a warm Get through a TieredStore with no disk tier allocates
// exactly what the bare sharded store does, which is nothing.
func TestTieredPassthroughGetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const docs = 1024
	mem, err := cache.NewSharded(cache.ShardedConfig{Capacity: docs * 2048})
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := cache.NewTiered(cache.TieredConfig{Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	now := t0()
	urls := make([]string, docs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://tier/hit%d", i)
		if _, err := mem.Put(cache.Document{URL: urls[i], Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	warmGet := func(get func(string, time.Time) (cache.Document, bool)) float64 {
		i := 0
		return testing.AllocsPerRun(2000, func() {
			if _, ok := get(urls[i%docs], now); !ok {
				t.Fatal("miss on a warm store")
			}
			i++
		})
	}
	bare, through := warmGet(mem.Get), warmGet(tiered.Get)
	if bare != 0 || through != 0 {
		t.Errorf("warm Get: %.2f allocs bare, %.2f through the nil-disk TieredStore, want 0 and 0", bare, through)
	}
}

// TestTieredDiskHitCycleAllocatesNothing is the budget of the disk hit at
// steady state: memory is full, the disk is warm, and every Get of the
// round robin finds its document on disk, so it verifies the blob,
// promotes the document, demotes one victim through the default zero body
// and removes the promoted blob — all without allocating.
func TestTieredDiskHitCycleAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const docs, inMemory, runs = 64, 16, 1000
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: inMemory << 10, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blob.Open(blob.Config{Dir: t.TempDir(), Capacity: 1 << 20, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, docs)
	now := t0()
	for i := range urls {
		urls[i] = fmt.Sprintf("http://cycle/%d", i)
		now = now.Add(time.Second)
		if _, err := ts.Put(cache.Document{URL: urls[i], Size: 1 << 10}, now); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	get := func() {
		now = now.Add(time.Second)
		if _, ok := ts.Get(urls[i%docs], now); !ok {
			t.Fatalf("%s: miss", urls[i%docs])
		}
		i++
	}
	for range urls { // one lap to warm the pools and the free stacks
		get()
	}
	before := ts.TierCounters()
	allocs := testing.AllocsPerRun(runs, get)
	after := ts.TierCounters()
	if p, d := after.Promotions-before.Promotions, after.Demotions-before.Demotions; p != runs+1 || d != runs+1 ||
		after.DemotionDrops+after.DiskEvictions+after.ChecksumFailures != 0 {
		t.Fatalf("%d promotions and %d demotions for %d disk hits; counters %+v", p, d, runs+1, after)
	}
	if mem.Len() != inMemory || disk.Len() != docs-inMemory {
		t.Fatalf("%d in memory, %d on disk; want %d and %d", mem.Len(), disk.Len(), inMemory, docs-inMemory)
	}
	if allocs != 0 {
		t.Errorf("disk hit: %.2f allocs, want 0", allocs)
	}
}

// corruptBody flips one byte of url's demoted body where it lies in the
// blob tier's segment files under dir.
func corruptBody(t *testing.T, dir, url string, size int64) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg", "*"))
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off := bytes.Index(data, docBody(url, size)); off >= 0 {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err == nil {
				_, err = f.WriteAt([]byte{^data[off+7]}, int64(off+7))
				f.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("%s: body not found in %d segments", url, len(segs))
}

// TestTieredCorruptBlobPromotesAsMiss: a promotion whose blob fails its
// checksum is a miss. The disk tier drops the entry and counts one
// failure, observers get the disk-tier EventRemove, and memory is left as
// it was. VerifyAll over the same store reports a second corrupt blob.
func TestTieredCorruptBlobPromotesAsMiss(t *testing.T) {
	dir := t.TempDir()
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 2048, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blob.Open(blob.Config{Dir: dir, Capacity: 1 << 20, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk, Demote: cache.DemoteAlways, Body: bodyFn})
	if err != nil {
		t.Fatal(err)
	}
	var events []cache.Event
	ts.SetEventSink(func(ev cache.Event) { events = append(events, ev) })
	now := t0()
	for i := 0; i < 6; i++ { // 2 in memory, 4 on disk
		now = now.Add(time.Minute)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://rot/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	corruptBody(t, dir, "http://rot/0", 1024)
	corruptBody(t, dir, "http://rot/1", 1024)
	events = nil
	if doc, ok := ts.Get("http://rot/0", now.Add(time.Minute)); ok {
		t.Fatalf("corrupt blob served as %+v", doc)
	}
	if ts.Contains("http://rot/0") || mem.Len() != 2 || disk.Len() != 3 {
		t.Fatalf("after the failed promotion: resident %v, %d in memory, %d on disk", ts.Contains("http://rot/0"), mem.Len(), disk.Len())
	}
	if c := ts.TierCounters(); c.ChecksumFailures != 1 || c.Promotions != 0 || c.Demotions != 4 {
		t.Fatalf("counters %+v, want 1 checksum failure, no promotion", c)
	}
	if len(events) != 1 || events[0].Kind != cache.EventRemove || events[0].Tier != cache.TierDisk || events[0].Doc.URL != "http://rot/0" {
		t.Fatalf("events %+v, want the disk-tier EventRemove of rot/0 alone", events)
	}
	if rep := disk.VerifyAll(); rep.Verified != 2 || rep.Failed != 1 || len(rep.FailedURLs) != 1 || rep.FailedURLs[0] != "http://rot/1" {
		t.Fatalf("VerifyAll = %+v, want rot/1 failed beside 2 verified", rep)
	}
	if n := disk.ChecksumFailures(); n != 2 {
		t.Fatalf("%d checksum failures, want 2", n)
	}
}

// TestDemotePromoteRoundTripProperty is the satellite property test:
// across randomized documents and hit histories, evict→demote→promote
// must round-trip body bytes, hit metadata and DocExpAge exactly — the
// only metadata change across the whole trip is the promoting access
// itself.
func TestDemotePromoteRoundTripProperty(t *testing.T) {
	rng := dist.NewRNG(1234)
	for trial := 0; trial < 40; trial++ {
		ts, mem, disk, events := newTieredMem(t, 4096, 1<<20, cache.DemoteEA)
		url := fmt.Sprintf("http://prop/%d", trial)
		size := int64(64 + rng.Intn(2048))
		enter := t0().Add(time.Duration(rng.Intn(1000)) * time.Second)
		hits := int64(1 + rng.Intn(50))
		lastHit := enter.Add(time.Duration(rng.Intn(3600)) * time.Second)

		if err := ts.RestoreEntry(cache.Document{URL: url, Size: size}, enter, lastHit, hits); err != nil {
			t.Fatal(err)
		}

		// Fill memory so the subject is evicted (fresh filler docs are
		// more recently used; LRU victims the subject first).
		evictAt := lastHit.Add(time.Duration(1+rng.Intn(7200)) * time.Second)
		for i := 0; mem.Contains(url); i++ {
			if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://fill/%d", i), Size: 1024}, evictAt); err != nil {
				t.Fatal(err)
			}
		}

		// Demoted, not dropped: a fresh disk tier reports NoContention.
		de, ok := disk.Peek(url)
		if !ok {
			t.Fatalf("trial %d: subject not demoted", trial)
		}
		if !de.EnteredAt.Equal(enter) || !de.LastHit.Equal(lastHit) || de.Hits != hits {
			t.Fatalf("trial %d: disk metadata %+v, want enter=%v lastHit=%v hits=%d",
				trial, de, enter, lastHit, hits)
		}
		var demote cache.Event
		for _, ev := range *events {
			if ev.Kind == cache.EventDemote && ev.Doc.URL == url {
				demote = ev
			}
		}
		if demote.Kind == 0 {
			t.Fatalf("trial %d: no demote event", trial)
		}
		// DocExpAge at eviction is eq. 2 (LRU): evict time - last hit.
		if want := evictAt.Sub(lastHit); demote.Age != want {
			t.Fatalf("trial %d: demote age %v, want %v", trial, demote.Age, want)
		}

		// Body bytes round-trip through the verified reader.
		_, rc, ok := disk.Open(url)
		if !ok {
			t.Fatalf("trial %d: blob unreadable", trial)
		}
		got, err := io.ReadAll(rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !bytes.Equal(got, docBody(url, size)) {
			t.Fatalf("trial %d: body bytes corrupted across demotion", trial)
		}

		// Promote via Get: metadata survives, plus exactly one hit.
		promoteAt := evictAt.Add(time.Duration(1+rng.Intn(3600)) * time.Second)
		doc, ok := ts.Get(url, promoteAt)
		if !ok || doc.Size != size {
			t.Fatalf("trial %d: promote get failed", trial)
		}
		me, ok := mem.Entry(url)
		if !ok {
			t.Fatalf("trial %d: not in memory after promotion", trial)
		}
		if !me.EnteredAt.Equal(enter) {
			t.Fatalf("trial %d: EnteredAt %v, want %v", trial, me.EnteredAt, enter)
		}
		if me.Hits != hits+1 {
			t.Fatalf("trial %d: Hits %d, want %d", trial, me.Hits, hits+1)
		}
		if !me.LastHit.Equal(promoteAt) {
			t.Fatalf("trial %d: LastHit %v, want %v", trial, me.LastHit, promoteAt)
		}
		if disk.Contains(url) {
			t.Fatalf("trial %d: still disk-resident after promotion", trial)
		}
		last := (*events)[len(*events)-1]
		if last.Kind != cache.EventPromoteFromDisk || last.Doc.URL != url ||
			!last.EnteredAt.Equal(enter) || last.Hits != hits+1 || !last.At.Equal(promoteAt) {
			t.Fatalf("trial %d: promote event %+v", trial, last)
		}
	}
}

// TestDemoteEAGate: the strict EA rule — a victim whose DocExpAge is not
// below the disk tier's expiration age is dropped, not demoted, and the
// drop feeds the node's tracker.
func TestDemoteEAGate(t *testing.T) {
	ts, mem, disk, events := newTieredMem(t, 2048, 4096, cache.DemoteEA)
	now := t0()

	// Load the disk tier's tracker with small ages: evict disk entries
	// whose last hit was just before eviction.
	for i := 0; i < 8; i++ {
		now = now.Add(time.Second)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://churn/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	// The churn demoted memory victims to disk and then evicted some of
	// them from disk (capacity 4096 holds 4). Disk EA is now ~ the
	// small ages of those disk victims.
	diskEA := disk.ExpirationAge(now)
	if diskEA == cache.NoContention {
		t.Fatalf("disk tier never evicted; test needs contention (disk len %d)", disk.Len())
	}

	// A victim idle longer than diskEA must be dropped (EventEvict
	// forwarded), not demoted. Make room for it first.
	ts.Remove(mem.URLs()[0])
	idle := cache.Document{URL: "http://idle/doc", Size: 1024}
	if err := ts.RestoreEntry(idle, now.Add(-diskEA-2*time.Hour), now.Add(-diskEA-time.Hour), 1); err != nil {
		t.Fatal(err)
	}
	*events = nil
	now = now.Add(time.Second)
	for i := 0; mem.Contains(idle.URL); i++ {
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://fill2/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	if disk.Contains(idle.URL) {
		t.Fatal("stale victim was demoted past the EA gate")
	}
	var sawDrop bool
	for _, ev := range *events {
		if ev.Kind == cache.EventEvict && ev.Doc.URL == idle.URL && ev.Tier == cache.TierMemory {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Fatal("dropped victim emitted no evict event")
	}
	c := ts.TierCounters()
	if c.DemotionDrops == 0 || c.Demotions == 0 || c.DiskEvictions == 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestDemoteAlwaysSpills: the blind-spill policy demotes regardless of
// the EA comparison.
func TestDemoteAlwaysSpills(t *testing.T) {
	ts, disk, _ := newTiered(t, 2048, 1<<20, cache.DemoteAlways)
	now := t0()
	for i := 0; i < 10; i++ {
		now = now.Add(time.Minute)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://spill/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	c := ts.TierCounters()
	if c.DemotionDrops != 0 {
		t.Fatalf("always-policy dropped %d victims", c.DemotionDrops)
	}
	if got := ts.Len(); got != 10 {
		t.Fatalf("logical len = %d, want 10", got)
	}
	if disk.Len() != 8 {
		t.Fatalf("disk len = %d, want 8", disk.Len())
	}
}

// TestTieredUnionSurface: membership, sizes, Entry and URLs span both
// tiers; Remove and Put keep the tiers exclusive.
func TestTieredUnionSurface(t *testing.T) {
	ts, mem, disk, events := newTieredMem(t, 2048, 1<<20, cache.DemoteAlways)
	now := t0()
	for i := 0; i < 6; i++ {
		now = now.Add(time.Minute)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://u/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	// 2 in memory, 4 on disk.
	if mem.Len() != 2 || disk.Len() != 4 || ts.Len() != 6 {
		t.Fatalf("mem/disk/len = %d/%d/%d", mem.Len(), disk.Len(), ts.Len())
	}
	if ts.Used() != 6*1024 || ts.Capacity() != 2048+1<<20 {
		t.Fatalf("used/capacity = %d/%d", ts.Used(), ts.Capacity())
	}
	if len(ts.URLs()) != 6 {
		t.Fatalf("URLs = %v", ts.URLs())
	}
	for i := 0; i < 6; i++ {
		url := fmt.Sprintf("http://u/%d", i)
		if !ts.Contains(url) {
			t.Fatalf("missing %s", url)
		}
		if _, ok := ts.Entry(url); !ok {
			t.Fatalf("no entry for %s", url)
		}
		if _, ok := ts.Peek(url); !ok {
			t.Fatalf("no peek for %s", url)
		}
	}
	// Remove a disk-resident URL: gone from the logical store, with a
	// disk-tier remove event for the digest and the counters.
	*events = nil
	if !ts.Remove("http://u/0") {
		t.Fatal("remove of disk-resident URL failed")
	}
	if ts.Contains("http://u/0") || disk.Contains("http://u/0") {
		t.Fatal("removed URL still resident")
	}
	if len(*events) != 1 || (*events)[0].Kind != cache.EventRemove || (*events)[0].Tier != cache.TierDisk {
		t.Fatalf("events = %+v", *events)
	}
	// Put over a disk-resident URL drops the stale blob first (the sink
	// sees disk-remove then insert).
	*events = nil
	if _, err := ts.Put(cache.Document{URL: "http://u/1", Size: 512}, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if disk.Contains("http://u/1") {
		t.Fatal("stale disk copy survived Put")
	}
	if len(*events) < 2 || (*events)[0].Kind != cache.EventRemove || (*events)[0].Tier != cache.TierDisk ||
		(*events)[len(*events)-1].Kind != cache.EventInsert {
		t.Fatalf("events = %+v", *events)
	}
}

// TestTieredTouchPromotes: a Touch on a disk-resident URL re-promotes it
// (the responder-side promotion reaches through the tiers).
func TestTieredTouchPromotes(t *testing.T) {
	ts, mem, disk, _ := newTieredMem(t, 2048, 1<<20, cache.DemoteAlways)
	now := t0()
	for i := 0; i < 6; i++ {
		now = now.Add(time.Minute)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://t/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	if !disk.Contains("http://t/0") {
		t.Fatal("setup: t/0 not on disk")
	}
	if !ts.Touch("http://t/0", now.Add(time.Hour)) {
		t.Fatal("touch on disk-resident URL failed")
	}
	if !mem.Contains("http://t/0") || disk.Contains("http://t/0") {
		t.Fatal("touch did not promote")
	}
	if ts.Touch("http://t/none", now) {
		t.Fatal("touch on absent URL succeeded")
	}
}

// TestTieredExitTracker: the advertised expiration age reflects only
// true exits — demotions are invisible, drops and disk evictions count.
func TestTieredExitTracker(t *testing.T) {
	ts, _, _ := newTiered(t, 2048, 1<<30, cache.DemoteAlways)
	now := t0()
	// Everything demotes (huge disk): the logical store never exits
	// anything, so the advertised signal stays NoContention.
	for i := 0; i < 20; i++ {
		now = now.Add(time.Minute)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://x/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := ts.ExpirationAge(now); got != cache.NoContention {
		t.Fatalf("age with demotions only = %v, want NoContention", got)
	}
	// Tracker state round-trips through persistence.
	st := ts.TrackerState()
	if st.TotalCount != 0 {
		t.Fatalf("tracker counted demotions: %+v", st)
	}

	// Now with a small disk: disk evictions are true exits.
	ts2, _, _ := newTiered(t, 2048, 3072, cache.DemoteAlways)
	now = t0()
	for i := 0; i < 20; i++ {
		now = now.Add(time.Minute)
		if _, err := ts2.Put(cache.Document{URL: fmt.Sprintf("http://y/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := ts2.ExpirationAge(now); got == cache.NoContention {
		t.Fatal("disk evictions left no contention evidence")
	}
	st2 := ts2.TrackerState()
	if st2.TotalCount == 0 {
		t.Fatal("exit tracker empty after disk evictions")
	}
	// RestoreTracker round-trip.
	ts3, _, _ := newTiered(t, 2048, 3072, cache.DemoteAlways)
	ts3.RestoreTracker(st2)
	if a, b := ts3.ExpirationAge(now), ts2.ExpirationAge(now); a != b {
		t.Fatalf("restored age %v, want %v", a, b)
	}
}

// recordingDisk is a DiskTier that counts every call made to it.
type recordingDisk struct {
	cache.DiskTier
	calls *int
}

func (d recordingDisk) tier() cache.DiskTier { *d.calls++; return d.DiskTier }

func (d recordingDisk) Admit(e cache.DiskEntry, body io.Reader, now time.Time) (cache.DiskEntry, []cache.DiskEviction, error) {
	return d.tier().Admit(e, body, now)
}
func (d recordingDisk) Verify(url string) (cache.DiskEntry, bool, error) { return d.tier().Verify(url) }
func (d recordingDisk) Remove(url string) (cache.DiskEntry, bool)        { return d.tier().Remove(url) }
func (d recordingDisk) Contains(url string) bool                         { return d.tier().Contains(url) }
func (d recordingDisk) Peek(url string) (cache.DiskEntry, bool)          { return d.tier().Peek(url) }
func (d recordingDisk) ExpirationAge(now time.Time) time.Duration        { return d.tier().ExpirationAge(now) }
func (d recordingDisk) Len() int                                         { return d.tier().Len() }
func (d recordingDisk) Used() int64                                      { return d.tier().Used() }
func (d recordingDisk) Capacity() int64                                  { return d.tier().Capacity() }
func (d recordingDisk) URLs() []string                                   { return d.tier().URLs() }
func (d recordingDisk) ChecksumFailures() int64                          { return d.tier().ChecksumFailures() }
func (d recordingDisk) Sync() error                                      { return d.tier().Sync() }
func (d recordingDisk) Close() error                                     { return d.tier().Close() }

// TestTieredCheckpointView: the checkpoint view is the memory tier plus
// the node's tracker, and nothing inside the all-shards barrier calls
// the disk tier — what it holds cannot lengthen the barrier.
func TestTieredCheckpointView(t *testing.T) {
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 4, Capacity: 8192, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blob.Open(blob.Config{Dir: t.TempDir(), Capacity: 1 << 20, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	calls := 0
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: recordingDisk{disk, &calls}, Demote: cache.DemoteAlways, Body: bodyFn})
	if err != nil {
		t.Fatal(err)
	}
	now := t0()
	for i := 0; i < 40; i++ {
		now = now.Add(time.Minute)
		if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://cp/%d", i), Size: 1024}, now); err != nil {
			t.Fatal(err)
		}
	}
	if calls == 0 || disk.Len() == 0 {
		t.Fatalf("setup: %d disk-tier calls, %d disk residents", calls, disk.Len())
	}
	before, inMem := calls, mem.Len() // not inside the barrier: Len takes the shard locks
	err = ts.Checkpoint(func(v cache.StoreView) error {
		if got := len(v.Entries()); got != inMem || got+disk.Len() != 40 {
			t.Fatalf("checkpoint memory entries = %d, memory holds %d beside %d on disk", got, inMem, disk.Len())
		}
		if _, ok := v.(interface{ DiskEntries() []cache.DiskEntry }); ok {
			t.Fatal("checkpoint view still images the disk tier")
		}
		if v.TrackerState().TotalCount != 0 {
			t.Fatal("the tracker counted tier moves")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Fatalf("Checkpoint made %d disk-tier calls, want none", calls-before)
	}
}

// TestRestoreDiskReconciles: the blob index is the record of disk
// residency and recovery joins it to the journal by one rule — a URL the
// journal restores into memory keeps the memory copy and loses its blob.
// A blob the journal never mentions stays, and so does one whose memory
// restore was refused: the document is in exactly one tier either way.
func TestRestoreDiskReconciles(t *testing.T) {
	ts, mem, disk, _ := newTieredMem(t, 300, 1<<20, cache.DemoteAlways)
	now := t0()
	// Three entries straight into the disk tier, as its own recovery
	// leaves them.
	for i := 0; i < 3; i++ {
		url := fmt.Sprintf("http://rd/%d", i)
		if _, _, err := disk.Admit(cache.DiskEntry{
			Doc: cache.Document{URL: url, Size: 256}, EnteredAt: now, LastHit: now, Hits: 1,
		}, bytes.NewReader(docBody(url, 256)), now); err != nil {
			t.Fatal(err)
		}
	}
	// rd/0 is memory-resident by the journal too (a promotion whose index
	// del, or a demotion whose journal frame, never landed): memory wins.
	if err := ts.RestoreEntry(cache.Document{URL: "http://rd/0", Size: 256}, now, now, 2); err != nil {
		t.Fatal(err)
	}
	// rd/1 is too, but no longer fits the memory tier: the restore is
	// refused and the blob is the copy that stays.
	if err := ts.RestoreEntry(cache.Document{URL: "http://rd/1", Size: 256}, now, now, 2); err == nil {
		t.Fatal("restore past the memory capacity accepted")
	}
	// rd/2 the journal never mentions: the index alone keeps it.
	for url, where := range map[string][2]bool{
		"http://rd/0": {true, false},
		"http://rd/1": {false, true},
		"http://rd/2": {false, true},
	} {
		if inMem, onDisk := mem.Contains(url), disk.Contains(url); inMem != where[0] || onDisk != where[1] {
			t.Fatalf("%s: memory %v, disk %v; want %v, %v", url, inMem, onDisk, where[0], where[1])
		}
	}
	if rep := disk.VerifyAll(); rep.Failed != 0 || rep.Verified != 2 {
		t.Fatalf("verify after reconcile = %+v", rep)
	}
}
