package cache_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
)

// TestTieredConcurrentGetOfDiskResident: eight requests for one
// disk-resident document race its promotion. The winner inserts it into
// memory and removes it from disk; a loser that missed memory before the
// insert and reaches the disk tier after the remove used to report a miss
// for a document that was resident all along (and two winners used to
// count two promotions). Each round re-demotes the document by pushing it
// out of memory, then lets all eight go at once.
func TestTieredConcurrentGetOfDiskResident(t *testing.T) {
	mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 4096, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blob.Open(blob.Config{Dir: t.TempDir(), Capacity: 1 << 20, ExpirationWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ts, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk, Demote: cache.DemoteAlways, Body: bodyFn})
	if err != nil {
		t.Fatal(err)
	}
	const target, getters, rounds = "http://race/target", 8, 300
	now := t0()
	if _, err := ts.Put(cache.Document{URL: target, Size: 1024}, now); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < 4; i++ { // four fillers fill memory: the target is demoted
			now = now.Add(time.Second)
			if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://race/filler%d", i), Size: 1024}, now); err != nil {
				t.Fatal(err)
			}
		}
		if mem.Contains(target) || !disk.Contains(target) {
			t.Fatalf("round %d: target not demoted (memory %v, disk %v)", round, mem.Contains(target), disk.Contains(target))
		}
		now = now.Add(time.Second)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < getters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if doc, ok := ts.Get(target, now); !ok || doc.Size != 1024 {
					t.Errorf("round %d: Get = %+v, %v for a resident document", round, doc, ok)
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		if !mem.Contains(target) || disk.Contains(target) {
			t.Fatalf("round %d: target not promoted (memory %v, disk %v)", round, mem.Contains(target), disk.Contains(target))
		}
		if c := ts.TierCounters(); c.Promotions != int64(round+1) || c.ChecksumFailures != 0 {
			t.Fatalf("round %d: %d promotions, %d checksum failures; want %d and 0", round, c.Promotions, c.ChecksumFailures, round+1)
		}
	}
}
