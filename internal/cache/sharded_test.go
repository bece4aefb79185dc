package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustSharded(t *testing.T, cfg ShardedConfig) *ShardedStore {
	t.Helper()
	s, err := NewSharded(cfg)
	if err != nil {
		t.Fatalf("NewSharded(%+v): %v", cfg, err)
	}
	return s
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{Shards: -1, Capacity: 100}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := NewSharded(ShardedConfig{Shards: 16, Capacity: 8}); err == nil {
		t.Fatal("capacity smaller than shard count accepted")
	}
	if s := mustSharded(t, ShardedConfig{Capacity: 1 << 20}); s.Shards() != DefaultShards {
		t.Fatalf("default shards = %d, want %d", s.Shards(), DefaultShards)
	}
	// Non-power-of-two rounds up.
	if s := mustSharded(t, ShardedConfig{Shards: 5, Capacity: 1 << 20}); s.Shards() != 8 {
		t.Fatalf("shards = %d, want 8", s.Shards())
	}
	if got := mustSharded(t, ShardedConfig{Shards: 4, Capacity: 1003}).Capacity(); got != 1003 {
		t.Fatalf("total capacity = %d, want 1003 (remainder distributed)", got)
	}
}

// shardedOps replays a deterministic mixed workload against both stores
// step by step, failing on the first observable divergence.
func replayEquivalence(t *testing.T, plain *Store, sharded *ShardedStore, steps int) {
	t.Helper()
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for i := 0; i < steps; i++ {
		now := at(i)
		url := fmt.Sprintf("http://host%d.example.edu/d%d", next(7), next(40))
		switch next(10) {
		case 0, 1, 2, 3: // Put
			d := Document{URL: url, Size: int64(100 + next(900)), Expires: now.Add(time.Duration(1+next(3600)) * time.Second)}
			evP, errP := plain.Put(d, now)
			evS, errS := sharded.Put(d, now)
			if (errP == nil) != (errS == nil) || len(evP) != len(evS) {
				t.Fatalf("step %d: Put(%s) diverged: plain (%d evictions, %v) sharded (%d, %v)",
					i, url, len(evP), errP, len(evS), errS)
			}
			for j := range evP {
				if evP[j].Doc != evS[j].Doc || evP[j].Age != evS[j].Age {
					t.Fatalf("step %d: eviction %d diverged: %+v vs %+v", i, j, evP[j], evS[j])
				}
			}
		case 4, 5, 6: // Get
			dP, okP := plain.Get(url, now)
			dS, okS := sharded.Get(url, now)
			if okP != okS || dP != dS {
				t.Fatalf("step %d: Get(%s) diverged: (%+v,%v) vs (%+v,%v)", i, url, dP, okP, dS, okS)
			}
		case 7: // Touch
			if okP, okS := plain.Touch(url, now), sharded.Touch(url, now); okP != okS {
				t.Fatalf("step %d: Touch(%s) diverged: %v vs %v", i, url, okP, okS)
			}
		case 8: // Remove
			if okP, okS := plain.Remove(url), sharded.Remove(url); okP != okS {
				t.Fatalf("step %d: Remove(%s) diverged: %v vs %v", i, url, okP, okS)
			}
		case 9: // Peek + Contains
			dP, okP := plain.Peek(url)
			dS, okS := sharded.Peek(url)
			if okP != okS || dP != dS || plain.Contains(url) != sharded.Contains(url) {
				t.Fatalf("step %d: Peek/Contains(%s) diverged", i, url)
			}
		}
		if ageP, ageS := plain.ExpirationAge(now), sharded.ExpirationAge(now); ageP != ageS {
			t.Fatalf("step %d: ExpirationAge diverged: %v vs %v", i, ageP, ageS)
		}
	}
	if plain.Used() != sharded.Used() || plain.Len() != sharded.Len() {
		t.Fatalf("final state diverged: used %d/%d, len %d/%d",
			plain.Used(), sharded.Used(), plain.Len(), sharded.Len())
	}
	if plain.Evictions() != sharded.Evictions() || plain.Insertions() != sharded.Insertions() {
		t.Fatalf("counters diverged: evictions %d/%d, insertions %d/%d",
			plain.Evictions(), sharded.Evictions(), plain.Insertions(), sharded.Insertions())
	}
}

// A one-shard ShardedStore must reproduce the plain Store bit for bit:
// same hits, same victims, same eviction ages, same expiration-age
// signal. This is the guarantee that lets a live node built over a
// one-shard store (the demo, the parity harness) stand in for a Store.
func TestShardedSingleShardMatchesStore(t *testing.T) {
	const capacity = 10_000
	t.Run("NewSharded", func(t *testing.T) {
		plain := mustStore(t, Config{Capacity: capacity, ExpirationWindow: 8})
		sharded := mustSharded(t, ShardedConfig{Shards: 1, Capacity: capacity, ExpirationWindow: 8})
		replayEquivalence(t, plain, sharded, 4000)
	})
	t.Run("LFU", func(t *testing.T) {
		plain := mustStore(t, Config{Capacity: capacity, Policy: NewLFU(), ExpirationWindow: 8})
		sharded := mustSharded(t, ShardedConfig{
			Shards: 1, Capacity: capacity, ExpirationWindow: 8,
			NewPolicy: func() Policy { return NewLFU() },
		})
		replayEquivalence(t, plain, sharded, 4000)
	})
}

// Concurrent mixed traffic on a multi-shard store: the race detector
// checks the locking, and the byte/count accounting must stay coherent.
func TestShardedConcurrentHammer(t *testing.T) {
	s := mustSharded(t, ShardedConfig{Shards: 8, Capacity: 64 << 10, ExpirationHorizon: time.Hour})
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := uint64(seed)*0x9E3779B97F4A7C15 + 1
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			for i := 0; i < 2000; i++ {
				now := time.Now()
				url := fmt.Sprintf("http://h%d/d%d", next(5), next(200))
				switch next(6) {
				case 0, 1:
					_, _ = s.Put(Document{URL: url, Size: int64(64 + next(2048)), Expires: now.Add(time.Hour)}, now)
				case 2, 3:
					_, _ = s.Get(url, now)
				case 4:
					_ = s.ExpirationAge(now)
				case 5:
					_ = s.Remove(url)
				}
			}
		}(w + 1)
	}
	wg.Wait()

	if s.Used() > s.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", s.Used(), s.Capacity())
	}
	if got, want := s.Len(), len(s.URLs()); got != want {
		t.Fatalf("Len() = %d but URLs() has %d", got, want)
	}
}

// The merged tracker state must survive a capture → restore round trip
// with its totals intact, for any shard count on either side.
func TestShardedTrackerRestoreRoundTrip(t *testing.T) {
	src := mustSharded(t, ShardedConfig{Shards: 4, Capacity: 2_000, ExpirationWindow: 16})
	now := t0
	for i := 0; i < 200; i++ {
		now = now.Add(time.Second)
		url := fmt.Sprintf("http://h/d%d", i%60)
		_, _ = src.Put(Document{URL: url, Size: 100, Expires: now.Add(time.Duration(i%50+1) * time.Minute)}, now)
	}
	if src.Evictions() == 0 {
		t.Fatal("workload produced no evictions; tracker round trip untested")
	}
	st := src.TrackerState()

	for _, shards := range []int{1, 4, 8} {
		dst := mustSharded(t, ShardedConfig{Shards: shards, Capacity: 2_000, ExpirationWindow: 16})
		dst.RestoreTracker(st)
		got := dst.TrackerState()
		if got.TotalCount != st.TotalCount {
			t.Fatalf("shards=%d: TotalCount = %d, want %d", shards, got.TotalCount, st.TotalCount)
		}
		if diff := got.TotalSumSeconds - st.TotalSumSeconds; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("shards=%d: TotalSumSeconds = %v, want %v", shards, got.TotalSumSeconds, st.TotalSumSeconds)
		}
		// Re-windowing is allowed to shrink the sample set (each shard
		// keeps at most its configured window of the samples dealt to
		// it), but never to lose contention evidence entirely.
		maxKept := shards * 16
		if len(got.Samples) > len(st.Samples) || (len(st.Samples) >= maxKept && len(got.Samples) < maxKept) {
			t.Fatalf("shards=%d: %d samples after restore of %d (window slots %d)",
				shards, len(got.Samples), len(st.Samples), maxKept)
		}
		if dst.ExpirationAge(now) == NoContention {
			t.Fatalf("shards=%d: restored store reports NoContention", shards)
		}
		if shards == src.Shards() {
			// Same shape: the merged windowed signal must match exactly.
			if gotAge, wantAge := dst.ExpirationAge(now), src.ExpirationAge(now); gotAge != wantAge {
				t.Fatalf("shards=%d: restored ExpirationAge = %v, want %v", shards, gotAge, wantAge)
			}
		}
	}
}

// Checkpoint must expose every entry exactly once while holding all the
// shard locks, and concurrent writers must observe the store unlocked
// again afterwards.
func TestShardedCheckpointView(t *testing.T) {
	s := mustSharded(t, ShardedConfig{Shards: 4, Capacity: 1 << 20, ExpirationWindow: 8})
	now := t0
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		url := fmt.Sprintf("http://h/d%d", i)
		if _, err := s.Put(Document{URL: url, Size: 128, Expires: now.Add(time.Hour)}, now); err != nil {
			t.Fatal(err)
		}
		want[url] = true
	}
	var seen []Entry
	err := s.Checkpoint(func(view StoreView) error {
		seen = view.Entries()
		_ = view.TrackerState()
		return nil
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(seen) != len(want) {
		t.Fatalf("checkpoint saw %d entries, want %d", len(seen), len(want))
	}
	for _, e := range seen {
		if !want[e.Doc.URL] {
			t.Fatalf("checkpoint saw unexpected entry %q", e.Doc.URL)
		}
	}
	// Locks must be released: a Put after Checkpoint completes.
	if _, err := s.Put(Document{URL: "http://h/after", Size: 1, Expires: now.Add(time.Hour)}, now); err != nil {
		t.Fatalf("Put after checkpoint: %v", err)
	}
}

// The EA signal reflects evictions at once: after new contention
// evidence arrives, the next read sees it.
func TestShardedExpirationAgeInvalidatedOnEviction(t *testing.T) {
	s := mustSharded(t, ShardedConfig{Shards: 2, Capacity: 400, ExpirationWindow: 4})
	now := t0
	if got := s.ExpirationAge(now); got != NoContention {
		t.Fatalf("empty store ExpirationAge = %v, want NoContention", got)
	}
	// Fill past capacity so Puts evict.
	for i := 0; i < 20; i++ {
		now = now.Add(time.Second)
		_, _ = s.Put(Document{URL: fmt.Sprintf("http://h/d%d", i), Size: 150, Expires: now.Add(time.Minute)}, now)
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions; the signal untested")
	}
	if got := s.ExpirationAge(now); got == NoContention {
		t.Fatal("ExpirationAge still NoContention after evictions")
	}
}
