package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"eacache/internal/race"
)

// storeTranscript drives a store through a seeded Put/Get/Touch/Remove/
// PromoteEntry sequence and returns the digest of everything observable:
// every eviction in order with its age and residency, the occupancy and
// expiration age along the way, and the final entries with their metadata.
func storeTranscript(t *testing.T, policy string) string {
	t.Helper()
	p, ok := NewPolicy(policy)
	if !ok {
		t.Fatalf("unknown policy %q", policy)
	}
	s := mustStore(t, Config{Capacity: 64 << 10, Policy: p, ExpirationWindow: 64})
	rng := rand.New(rand.NewSource(42))
	h := sha256.New()
	logEvictions := func(evs []Eviction, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			fmt.Fprintf(h, "evict %s %d %d %d\n", ev.Doc.URL, ev.Doc.Size, ev.Age, ev.ResidencyTime)
		}
	}
	now := at(0)
	for i := 0; i < 20000; i++ {
		now = now.Add(time.Duration(1+rng.Intn(5)) * time.Second)
		url := fmt.Sprintf("doc-%d", rng.Intn(200))
		size := int64(1 + rng.Intn(4000))
		switch k := rng.Intn(100); {
		case k < 60:
			logEvictions(s.Put(Document{URL: url, Size: size}, now))
		case k < 75:
			s.Get(url, now)
		case k < 85:
			s.Touch(url, now)
		case k < 92:
			s.Remove(url)
		default:
			logEvictions(s.PromoteEntry(Document{URL: url, Size: size}, now.Add(-time.Hour), int64(rng.Intn(9)), now))
		}
		if i%100 == 0 {
			fmt.Fprintf(h, "at %d used %d age %d\n", i, s.Used(), s.ExpirationAge(now))
		}
	}
	entries := s.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Doc.URL < entries[j].Doc.URL })
	for _, e := range entries {
		fmt.Fprintf(h, "entry %s %d %d %d %d\n", e.Doc.URL, e.Doc.Size, e.EnteredAt.Unix(), e.LastHit.Unix(), e.Hits)
	}
	fmt.Fprintf(h, "used %d age %d cumulative %d evictions %d insertions %d\n",
		s.Used(), s.ExpirationAge(now), s.CumulativeExpirationAge(), s.Evictions(), s.Insertions())
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreTranscriptGolden holds every policy to the transcript captured
// before the store recycled its entries: a recycled entry that carried a
// stale hit count, heap position or list link would evict a
// different victim somewhere in 20,000 operations.
func TestStoreTranscriptGolden(t *testing.T) {
	for policy, want := range map[string]string{
		"lru": "dc1a6c9f16ce73239e8392d7e2035c80af9dc77406291f64361fd3648f6f20d8",
		"lfu": "a01b9e10944f33cce4fc338e59428a86349f29989ad9e5e6beab8a9c15b5ecc1",
	} {
		if got := storeTranscript(t, policy); got != want {
			t.Errorf("%s: transcript digest %s, want %s", policy, got, want)
		}
	}
}

// TestPutAllocBudget: at capacity an insert allocates nothing — the entry
// comes off the free stack and the eviction list it returns is the store's.
func TestPutAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s := mustStore(t, Config{Capacity: 64 << 10, ExpirationWindow: 64})
	urls := make([]string, 256)
	for i := range urls {
		urls[i] = fmt.Sprintf("doc-%d", i)
	}
	now, i := at(0), 0
	put := func() {
		now = now.Add(time.Second)
		if _, err := s.Put(Document{URL: urls[i%len(urls)], Size: 1 << 10}, now); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range urls { // fill, then cycle once so every insert evicts
		put()
	}
	if allocs := testing.AllocsPerRun(1000, put); allocs != 0 {
		t.Errorf("Put at capacity: %.2f allocs, want 0", allocs)
	}
}

// TestRecycledEntriesAreClean: whatever a document's entry accumulated —
// hits, a heap position, list links — is gone by the time the
// entry waits on the free stack, and the document inserted into it starts
// as any new document does.
func TestRecycledEntriesAreClean(t *testing.T) {
	for _, policy := range []string{"lru", "lfu"} {
		p, _ := NewPolicy(policy)
		s := mustStore(t, Config{Capacity: 10 << 10, Policy: p})
		for i := 0; i < 10; i++ {
			url := fmt.Sprintf("old-%d", i)
			if _, err := s.Put(doc(url, 1<<10), at(i)); err != nil {
				t.Fatal(err)
			}
			for h := 0; h <= i; h++ {
				s.Get(url, at(10+i+h))
			}
		}
		s.Remove("old-3")
		evicted, err := s.Put(doc("big", 6<<10), at(100))
		if err != nil || len(evicted) != 5 {
			t.Fatalf("%s: evicted %d, err %v; want 5 evictions", policy, len(evicted), err)
		}
		if len(s.free) != 5 { // six released, one taken by "big"
			t.Fatalf("%s: free stack holds %d entries, want 5", policy, len(s.free))
		}
		for _, e := range s.free {
			if *e != (Entry{}) {
				t.Errorf("%s: entry on the free stack is not zeroed: %+v", policy, *e)
			}
		}
		s.Remove("big") // room for "new" without an eviction
		if _, err := s.Put(doc("new", 1<<10), at(200)); err != nil {
			t.Fatal(err)
		}
		if len(s.free) != 5 {
			t.Fatalf("%s: insert did not take an entry off the free stack (%d left)", policy, len(s.free))
		}
		got, _ := s.Entry("new")
		if got.Hits != 1 || !got.EnteredAt.Equal(at(200)) || !got.LastHit.Equal(at(200)) || got.Doc != doc("new", 1<<10) {
			t.Errorf("%s: recycled entry carries stale metadata: %+v", policy, got)
		}
	}
}

// TestFreeStackIsBounded: one large insert that evicts hundreds of small
// documents leaves at most maxFreeEntries behind.
func TestFreeStackIsBounded(t *testing.T) {
	s := mustStore(t, Config{Capacity: 1 << 20})
	for i := 0; i < 1024; i++ {
		if _, err := s.Put(doc(fmt.Sprintf("small-%d", i), 1<<10), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := s.Put(doc("huge", 1<<20), at(2000))
	if err != nil || len(evicted) != 1024 {
		t.Fatalf("evicted %d, err %v; want 1024 evictions", len(evicted), err)
	}
	// The stack filled to its bound, then "huge" took one entry back.
	if len(s.free) != maxFreeEntries-1 || cap(s.free) > 2*maxFreeEntries {
		t.Fatalf("free stack len %d cap %d, want len %d", len(s.free), cap(s.free), maxFreeEntries-1)
	}
}

// TestEvictionListPinsNothing: the list Put returns is reused by the next
// Put, and after a burst of 1024 evictions a one-victim Put leaves no
// evicted Document in the buffer past its length to keep alive.
func TestEvictionListPinsNothing(t *testing.T) {
	s := mustStore(t, Config{Capacity: 1 << 20})
	for i := 0; i < 1024; i++ {
		if _, err := s.Put(doc(fmt.Sprintf("small-%d", i), 1<<10), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	burst, err := s.Put(doc("huge", 1<<20), at(2000))
	if err != nil || len(burst) != 1024 {
		t.Fatalf("evicted %d, err %v; want 1024 evictions", len(burst), err)
	}
	one, err := s.Put(doc("next", 1<<10), at(2001))
	if err != nil || len(one) != 1 || one[0].Doc.URL != "huge" {
		t.Fatalf("evicted %+v, err %v; want huge alone", one, err)
	}
	if &one[0] != &burst[0] {
		t.Fatal("the second Put did not reuse the store's eviction list")
	}
	for i, ev := range one[1:cap(one)] {
		if ev != (Eviction{}) {
			t.Fatalf("buffer slot %d past the list still holds %+v", i+1, ev)
		}
	}
	none, err := s.Put(doc("next", 1<<10), at(2002)) // a refresh: no victim
	if err != nil || len(none) != 0 || none[:1][0] != (Eviction{}) {
		t.Fatalf("refresh evicted %+v (err %v), or left huge in the buffer", none, err)
	}
}
