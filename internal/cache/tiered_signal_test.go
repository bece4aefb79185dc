package cache_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/race"
)

// signalStore is what the contention-signal tests drive: a bare sharded
// store or a tiered one.
type signalStore interface {
	Put(doc cache.Document, now time.Time) ([]cache.Eviction, error)
	ExpirationAge(now time.Time) time.Duration
}

// dropDisk is a disk tier whose expiration age is 0, so the EA rule
// drops every memory victim without calling Admit: each eviction is a
// true exit and costs the disk tier nothing.
type dropDisk struct{ cache.DiskTier }

func (dropDisk) ExpirationAge(time.Time) time.Duration { return 0 }
func (dropDisk) Contains(string) bool                  { return false }

// TestTieredContentionWindowIsNodeWide: a node advertises the mean over
// its last W exits, whatever its shard count and whether or not it has a
// disk tier. Shards are locks; they do not widen the window.
func TestTieredContentionWindowIsNodeWide(t *testing.T) {
	const window = 16
	for _, shards := range []int{1, 2, 8} {
		for _, withDisk := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/disk=%v", shards, withDisk), func(t *testing.T) {
				mem, err := cache.NewSharded(cache.ShardedConfig{Shards: shards, Capacity: 8 << 10, ExpirationWindow: window})
				if err != nil {
					t.Fatal(err)
				}
				cfg := cache.TieredConfig{Memory: mem, Demote: cache.DemoteAlways, Body: bodyFn}
				if withDisk {
					disk, err := blob.Open(blob.Config{Dir: t.TempDir(), Capacity: 4 << 10, ExpirationWindow: window})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { disk.Close() })
					cfg.Disk = disk
				}
				ts, err := cache.NewTiered(cfg)
				if err != nil {
					t.Fatal(err)
				}
				now := t0()
				for i := 0; i < 400; i++ {
					now = now.Add(time.Second)
					if _, err := ts.Put(cache.Document{URL: fmt.Sprintf("http://w/%d", i), Size: 256}, now); err != nil {
						t.Fatal(err)
					}
				}
				exits := mem.Evictions()
				if withDisk {
					c := ts.TierCounters()
					exits = c.DemotionDrops + c.DiskEvictions
				}
				st := ts.TrackerState()
				if exits <= window || st.TotalCount != exits {
					t.Fatalf("%d exits, tracker counted %d; want more than %d, counted once each", exits, st.TotalCount, window)
				}
				if st.Window != window || len(st.Samples) != window {
					t.Fatalf("tracker window %d holding %d samples, want %d and %d", st.Window, len(st.Samples), window, window)
				}
			})
		}
	}
}

// TestTieredExpirationAgeAllocatesNothing is the budget of the placement
// signal: every cooperative exchange reads it, so a read allocates
// nothing, right after an eviction or after the clock has moved.
func TestTieredExpirationAgeAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	newMem := func() *cache.ShardedStore {
		// One 1 KB document per shard: every Put below evicts exactly one.
		mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 8, Capacity: 8 << 10, ExpirationWindow: 16})
		if err != nil {
			t.Fatal(err)
		}
		return mem
	}
	tiered, err := cache.NewTiered(cache.TieredConfig{Memory: newMem(), Disk: dropDisk{}})
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 64)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://a/%d", i)
	}
	for name, s := range map[string]signalStore{"sharded": newMem(), "tiered": tiered} {
		now, i := t0(), 0
		put := func() {
			now = now.Add(time.Millisecond)
			if _, err := s.Put(cache.Document{URL: urls[i%len(urls)], Size: 1 << 10}, now); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for range urls {
			put()
		}
		if s.ExpirationAge(now) == cache.NoContention {
			t.Fatalf("%s: no contention evidence after %d puts", name, len(urls))
		}
		putOnly := testing.AllocsPerRun(500, put)
		putThenRead := testing.AllocsPerRun(500, func() { put(); s.ExpirationAge(now) })
		afterClock := testing.AllocsPerRun(500, func() {
			now = now.Add(200 * time.Millisecond)
			s.ExpirationAge(now)
		})
		if putThenRead != putOnly || afterClock != 0 {
			t.Errorf("%s: a read allocates %.0f after an eviction and %.0f after the clock moves, want 0 and 0",
				name, putThenRead-putOnly, afterClock)
		}
	}
}

// TestTieredCheckpointTrackerMatchesExits: a checkpoint sees each exit
// whole. Under a storm of Puts and promotions, the tracker a Checkpoint
// captures has counted exactly the exits its entries reflect: every one
// is recorded inside the critical section of the shard it left.
func TestTieredCheckpointTrackerMatchesExits(t *testing.T) {
	for _, withDisk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", withDisk), func(t *testing.T) {
			mem, err := cache.NewSharded(cache.ShardedConfig{Shards: 4, Capacity: 8 << 10, ExpirationWindow: 16})
			if err != nil {
				t.Fatal(err)
			}
			cfg := cache.TieredConfig{Memory: mem, Body: bodyFn}
			if withDisk {
				disk, err := blob.Open(blob.Config{Dir: t.TempDir(), Capacity: 8 << 10, ExpirationWindow: 16})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { disk.Close() })
				cfg.Disk = disk
			}
			ts, err := cache.NewTiered(cfg)
			if err != nil {
				t.Fatal(err)
			}
			exits := mem.ShardEvictionsLocked
			if withDisk {
				exits = func() int64 { c := ts.TierCounters(); return c.DemotionDrops + c.DiskEvictions }
			}
			var (
				wg   sync.WaitGroup
				stop = make(chan struct{})
			)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					now := t0()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						now = now.Add(time.Duration(1+i%7) * time.Second)
						doc := cache.Document{URL: fmt.Sprintf("http://s/%d", (i*7+w)%96), Size: 512}
						switch {
						case i%3 != 0:
							_, _ = ts.Put(doc, now)
						case withDisk:
							ts.Get(doc.URL, now) // promotes a disk-resident document
						default:
							_, _ = mem.PromoteEntry(doc, now.Add(-time.Minute), 2, now)
						}
					}
				}(w)
			}
			var captured int64
			deadline := time.Now().Add(10 * time.Second)
			for c := 0; captured < 2000 && time.Now().Before(deadline); c++ {
				err := ts.Checkpoint(func(v cache.StoreView) error {
					captured = exits()
					if got := v.TrackerState().TotalCount; got != captured {
						return fmt.Errorf("checkpoint %d: tracker counted %d exits, the store made %d", c, got, captured)
					}
					return nil
				})
				if err != nil {
					close(stop)
					wg.Wait()
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			if captured < 2000 {
				t.Fatalf("only %d exits before the deadline; the storm tested too little", captured)
			}
		})
	}
}
