package cache_test

import (
	"errors"
	"io"
	"testing"
	"time"

	"eacache/internal/cache"
)

// failingDisk is a DiskTier whose Admit evicts two residents to make room
// and then fails, as blob.Store does when the index append, the fan-out
// MkdirAll or the rename fails after its eviction loop. Only the methods
// the demotion path calls are implemented.
type failingDisk struct {
	cache.DiskTier
	victims []cache.DiskEviction
}

func (d *failingDisk) Admit(e cache.DiskEntry, body io.Reader, now time.Time) (cache.DiskEntry, []cache.DiskEviction, error) {
	return e, d.victims, errors.New("disk full of sorrow")
}
func (d *failingDisk) Contains(string) bool    { return false }
func (d *failingDisk) ChecksumFailures() int64 { return 0 }

// TestDemoteFailureStillSurfacesDiskEvictions: documents the disk tier
// evicted before its admission failed have left the node. They used to
// vanish without a disk-tier EventEvict — the digest kept advertising
// them, the exit tracker never saw their ages and journal replay believed
// them resident.
func TestDemoteFailureStillSurfacesDiskEvictions(t *testing.T) {
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 1000, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	now := t0()
	disk := &failingDisk{victims: []cache.DiskEviction{
		{Entry: cache.DiskEntry{Doc: cache.Document{URL: "http://d/1", Size: 300}, LastHit: now.Add(-40 * time.Second), Hits: 2}, Age: 40 * time.Second},
		{Entry: cache.DiskEntry{Doc: cache.Document{URL: "http://d/2", Size: 200}, LastHit: now.Add(-20 * time.Second), Hits: 1}, Age: 20 * time.Second},
	}}
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk, Demote: cache.DemoteAlways})
	if err != nil {
		t.Fatal(err)
	}
	var events []cache.Event
	ts.SetEventSink(func(ev cache.Event) { events = append(events, ev) })

	if _, err := ts.Put(cache.Document{URL: "http://m/old", Size: 600}, now.Add(-10*time.Second)); err != nil {
		t.Fatal(err)
	}
	events = events[:0]
	if _, err := ts.Put(cache.Document{URL: "http://m/new", Size: 600}, now); err != nil { // evicts old; its demotion fails
		t.Fatal(err)
	}

	type seen struct {
		kind cache.EventKind
		tier cache.Tier
		url  string
		age  time.Duration
	}
	var got []seen
	for _, ev := range events {
		got = append(got, seen{ev.Kind, ev.Tier, ev.Doc.URL, ev.Age})
	}
	want := []seen{
		{cache.EventEvict, cache.TierDisk, "http://d/1", 40 * time.Second},
		{cache.EventEvict, cache.TierDisk, "http://d/2", 20 * time.Second},
		{cache.EventEvict, cache.TierMemory, "http://m/old", 10 * time.Second}, // the failed demotion is a true exit
		{cache.EventInsert, cache.TierMemory, "http://m/new", 0},
	}
	if len(got) != len(want) {
		t.Fatalf("events %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	c := ts.TierCounters()
	if c.DiskEvictions != 2 || c.DemotionDrops != 1 || c.Demotions != 0 {
		t.Fatalf("counters %+v, want 2 disk evictions, 1 demotion drop, 0 demotions", c)
	}
	// All three exits priced the advertised expiration age: (40+20+10)/3.
	if age := ts.ExpirationAge(now); age != 70*time.Second/3 {
		t.Fatalf("advertised expiration age %v, want %v", age, 70*time.Second/3)
	}
}
