package cache

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(1994, time.November, 15, 12, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func mustStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return s
}

func doc(url string, size int64) Document { return Document{URL: url, Size: size} }

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{name: "valid", cfg: Config{Capacity: 100}, ok: true},
		{name: "zero capacity", cfg: Config{}, ok: false},
		{name: "negative capacity", cfg: Config{Capacity: -1}, ok: false},
		{name: "negative window", cfg: Config{Capacity: 1, ExpirationWindow: -1}, ok: false},
		{name: "negative horizon", cfg: Config{Capacity: 1, ExpirationHorizon: -time.Second}, ok: false},
		{name: "window and horizon", cfg: Config{Capacity: 1, ExpirationWindow: 4, ExpirationHorizon: time.Second}, ok: false},
		{name: "window only", cfg: Config{Capacity: 1, ExpirationWindow: 4}, ok: true},
		{name: "horizon only", cfg: Config{Capacity: 1, ExpirationHorizon: time.Second}, ok: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("New(%+v) err = %v, want ok=%v", tt.cfg, err, tt.ok)
			}
		})
	}
}

func TestPutGet(t *testing.T) {
	s := mustStore(t, Config{Capacity: 100})
	if _, err := s.Put(doc("a", 40), at(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get("a", at(1))
	if !ok || got != doc("a", 40) {
		t.Fatalf("Get(a) = %+v, %v; want stored doc", got, ok)
	}
	if _, ok := s.Get("b", at(1)); ok {
		t.Fatal("Get(b) should miss")
	}
	if s.Used() != 40 || s.Len() != 1 {
		t.Fatalf("Used=%d Len=%d, want 40, 1", s.Used(), s.Len())
	}
}

func TestGetUpdatesMetadata(t *testing.T) {
	s := mustStore(t, Config{Capacity: 100})
	if _, err := s.Put(doc("a", 10), at(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a", at(5)); !ok {
		t.Fatal("expected hit")
	}
	e, ok := s.Entry("a")
	if !ok {
		t.Fatal("Entry(a) missing")
	}
	if e.Hits != 2 {
		t.Fatalf("Hits = %d, want 2 (1 on insert + 1 on get)", e.Hits)
	}
	if !e.LastHit.Equal(at(5)) {
		t.Fatalf("LastHit = %v, want %v", e.LastHit, at(5))
	}
	if !e.EnteredAt.Equal(at(0)) {
		t.Fatalf("EnteredAt = %v, want %v", e.EnteredAt, at(0))
	}
}

func TestPeekAndContainsDoNotTouch(t *testing.T) {
	s := mustStore(t, Config{Capacity: 100})
	if _, err := s.Put(doc("a", 10), at(0)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("a") {
		t.Fatal("Contains(a) = false")
	}
	if _, ok := s.Peek("a"); !ok {
		t.Fatal("Peek(a) missed")
	}
	e, _ := s.Entry("a")
	if e.Hits != 1 || !e.LastHit.Equal(at(0)) {
		t.Fatalf("Peek/Contains must not touch: Hits=%d LastHit=%v", e.Hits, e.LastHit)
	}
}

func TestTouchPromotes(t *testing.T) {
	s := mustStore(t, Config{Capacity: 30})
	for i, u := range []string{"a", "b", "c"} {
		if _, err := s.Put(doc(u, 10), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	// "a" is LRU victim; touching it should save it.
	if !s.Touch("a", at(10)) {
		t.Fatal("Touch(a) = false")
	}
	evicted, err := s.Put(doc("d", 10), at(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Doc.URL != "b" {
		t.Fatalf("evicted %+v, want [b]", evicted)
	}
	if !s.Contains("a") {
		t.Fatal("promoted doc evicted")
	}
	if s.Touch("zzz", at(12)) {
		t.Fatal("Touch of absent doc returned true")
	}
}

func TestEvictionOrderAndAccounting(t *testing.T) {
	s := mustStore(t, Config{Capacity: 25})
	for i, u := range []string{"a", "b", "c", "d", "e"} {
		if _, err := s.Put(doc(u, 5), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Full: a b c d e (LRU order a oldest). A 10-byte doc evicts a and b.
	evicted, err := s.Put(doc("f", 10), at(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 || evicted[0].Doc.URL != "a" || evicted[1].Doc.URL != "b" {
		t.Fatalf("evicted %+v, want a then b", evicted)
	}
	if s.Used() != 25 {
		t.Fatalf("Used = %d, want 25", s.Used())
	}
	if s.Evictions() != 2 {
		t.Fatalf("Evictions = %d, want 2", s.Evictions())
	}
	if s.Insertions() != 6 {
		t.Fatalf("Insertions = %d, want 6", s.Insertions())
	}
}

func TestPutTooLarge(t *testing.T) {
	s := mustStore(t, Config{Capacity: 10})
	if _, err := s.Put(doc("a", 5), at(0)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Put(doc("big", 11), at(1))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// The failed Put must not have disturbed the cache.
	if !s.Contains("a") || s.Len() != 1 {
		t.Fatalf("store disturbed by oversized Put: len=%d", s.Len())
	}
}

func TestPutNegativeSize(t *testing.T) {
	s := mustStore(t, Config{Capacity: 10})
	if _, err := s.Put(doc("a", -1), at(0)); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	s := mustStore(t, Config{Capacity: 30})
	for i, u := range []string{"a", "b", "c"} {
		if _, err := s.Put(doc(u, 10), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-put "a": refresh, not duplicate.
	if _, err := s.Put(doc("a", 10), at(5)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Used() != 30 {
		t.Fatalf("Len=%d Used=%d after re-put, want 3, 30", s.Len(), s.Used())
	}
	evicted, err := s.Put(doc("d", 10), at(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Doc.URL != "b" {
		t.Fatalf("evicted %+v, want [b] (a was refreshed)", evicted)
	}
}

func TestReinsertResize(t *testing.T) {
	s := mustStore(t, Config{Capacity: 30})
	if _, err := s.Put(doc("a", 10), at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(doc("a", 25), at(1)); err != nil {
		t.Fatal(err)
	}
	if s.Used() != 25 {
		t.Fatalf("Used = %d after resize, want 25", s.Used())
	}
	// Growing a resident doc beyond what fits must evict others, never
	// itself.
	if _, err := s.Put(doc("b", 5), at(2)); err != nil {
		t.Fatal(err)
	}
	evicted, err := s.Put(doc("a", 30), at(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Doc.URL != "b" {
		t.Fatalf("evicted %+v, want [b]", evicted)
	}
	if !s.Contains("a") || s.Used() != 30 {
		t.Fatalf("resize broke accounting: used=%d", s.Used())
	}
}

func TestRemove(t *testing.T) {
	s := mustStore(t, Config{Capacity: 30})
	if _, err := s.Put(doc("a", 10), at(0)); err != nil {
		t.Fatal(err)
	}
	if !s.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if s.Remove("a") {
		t.Fatal("second Remove(a) = true")
	}
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatalf("Used=%d Len=%d after remove", s.Used(), s.Len())
	}
	// Invalidation is not a contention eviction.
	if s.Evictions() != 0 {
		t.Fatalf("Evictions = %d after Remove, want 0", s.Evictions())
	}
	if s.ExpirationAge(at(1)) != NoContention {
		t.Fatal("Remove must not record an expiration age")
	}
}

func TestEvictionAgeLRU(t *testing.T) {
	s := mustStore(t, Config{Capacity: 20})
	if _, err := s.Put(doc("a", 10), at(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a", at(30)); !ok { // last hit at t=30
		t.Fatal("expected hit")
	}
	if _, err := s.Put(doc("b", 10), at(40)); err != nil {
		t.Fatal(err)
	}
	evicted, err := s.Put(doc("c", 15), at(100)) // evicts a then b
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 {
		t.Fatalf("evicted %d docs, want 2", len(evicted))
	}
	// DocExpAge(a) = 100 - 30 = 70s (eq. 2: eviction minus last hit).
	if evicted[0].Age != 70*time.Second {
		t.Fatalf("age(a) = %v, want 70s", evicted[0].Age)
	}
	// DocExpAge(b) = 100 - 40 = 60s.
	if evicted[1].Age != 60*time.Second {
		t.Fatalf("age(b) = %v, want 60s", evicted[1].Age)
	}
	// ResidencyTime(a) = 100 - 0.
	if evicted[0].ResidencyTime != 100*time.Second {
		t.Fatalf("residency(a) = %v, want 100s", evicted[0].ResidencyTime)
	}
	// CacheExpAge = mean(70, 60) = 65s (eq. 5).
	if got := s.ExpirationAge(at(100)); got != 65*time.Second {
		t.Fatalf("ExpirationAge = %v, want 65s", got)
	}
	if got := s.CumulativeExpirationAge(); got != 65*time.Second {
		t.Fatalf("CumulativeExpirationAge = %v, want 65s", got)
	}
}

func TestNoContentionBeforeFirstEviction(t *testing.T) {
	s := mustStore(t, Config{Capacity: 100})
	if got := s.ExpirationAge(at(0)); got != NoContention {
		t.Fatalf("ExpirationAge = %v, want NoContention", got)
	}
	if got := s.CumulativeExpirationAge(); got != NoContention {
		t.Fatalf("CumulativeExpirationAge = %v, want NoContention", got)
	}
}

func TestURLs(t *testing.T) {
	s := mustStore(t, Config{Capacity: 100})
	want := map[string]bool{"a": true, "b": true}
	for u := range want {
		if _, err := s.Put(doc(u, 10), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	urls := s.URLs()
	if len(urls) != len(want) {
		t.Fatalf("URLs() = %v", urls)
	}
	for _, u := range urls {
		if !want[u] {
			t.Fatalf("unexpected URL %q", u)
		}
	}
}

func TestCapacityNeverExceededAcrossPolicies(t *testing.T) {
	for _, policy := range []string{"lru", "lfu"} {
		t.Run(policy, func(t *testing.T) {
			p, ok := NewPolicy(policy)
			if !ok {
				t.Fatalf("NewPolicy(%q) unknown", policy)
			}
			s := mustStore(t, Config{Capacity: 100, Policy: p})
			for i := 0; i < 500; i++ {
				size := int64(1 + (i*7)%40)
				_, err := s.Put(doc(string(rune('a'+i%26))+string(rune('0'+i%10)), size), at(i))
				if err != nil && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("Put: %v", err)
				}
				if s.Used() > s.Capacity() {
					t.Fatalf("used %d exceeds capacity %d", s.Used(), s.Capacity())
				}
			}
		})
	}
}
