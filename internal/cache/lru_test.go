package cache

import (
	"reflect"
	"testing"
	"time"
)

func TestLRUOrder(t *testing.T) {
	l := NewLRU()
	entries := map[string]*Entry{}
	add := func(u string) {
		e := &Entry{Doc: doc(u, 1)}
		entries[u] = e
		l.Add(e)
	}
	add("a")
	add("b")
	add("c")
	if got := l.Order(); !reflect.DeepEqual(got, []string{"c", "b", "a"}) {
		t.Fatalf("Order = %v, want [c b a]", got)
	}
	l.Touch(entries["a"])
	if got := l.Order(); !reflect.DeepEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("Order after touch = %v, want [a c b]", got)
	}
	if v := l.Victim(); v != entries["b"] {
		t.Fatalf("Victim = %v, want b", v.Doc.URL)
	}
	l.Remove(entries["b"])
	if v := l.Victim(); v != entries["c"] {
		t.Fatalf("Victim after remove = %v, want c", v.Doc.URL)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestLRUVictimEmpty(t *testing.T) {
	l := NewLRU()
	if l.Victim() != nil {
		t.Fatal("Victim of empty LRU should be nil")
	}
}

func TestLRUExpirationAge(t *testing.T) {
	l := NewLRU()
	e := &Entry{Doc: doc("a", 1), EnteredAt: at(0), LastHit: at(10), Hits: 3}
	if got := l.ExpirationAge(e, at(25)); got != 15*time.Second {
		t.Fatalf("ExpirationAge = %v, want 15s (eq. 2: removal - last hit)", got)
	}
}

func TestLFUVictimIsLeastFrequent(t *testing.T) {
	l := NewLFU()
	a := &Entry{Doc: doc("a", 1), Hits: 5, LastHit: at(1)}
	b := &Entry{Doc: doc("b", 1), Hits: 2, LastHit: at(2)}
	c := &Entry{Doc: doc("c", 1), Hits: 9, LastHit: at(3)}
	for _, e := range []*Entry{a, b, c} {
		l.Add(e)
	}
	if v := l.Victim(); v != b {
		t.Fatalf("Victim = %s, want b", v.Doc.URL)
	}
	// b gains hits; a becomes least frequent.
	b.Hits = 7
	l.Touch(b)
	if v := l.Victim(); v != a {
		t.Fatalf("Victim = %s, want a", v.Doc.URL)
	}
	l.Remove(a)
	if v := l.Victim(); v != b {
		t.Fatalf("Victim = %s, want b (7 < 9)", v.Doc.URL)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestLFUTieBreaksOnRecency(t *testing.T) {
	l := NewLFU()
	a := &Entry{Doc: doc("a", 1), Hits: 3, LastHit: at(10)}
	b := &Entry{Doc: doc("b", 1), Hits: 3, LastHit: at(5)}
	l.Add(a)
	l.Add(b)
	if v := l.Victim(); v != b {
		t.Fatalf("Victim = %s, want b (older last hit)", v.Doc.URL)
	}
}

func TestLFUExpirationAge(t *testing.T) {
	l := NewLFU()
	// Entered at t=0, removed at t=100, 4 hits: eq. 3 gives 25s.
	e := &Entry{Doc: doc("a", 1), EnteredAt: at(0), Hits: 4}
	if got := l.ExpirationAge(e, at(100)); got != 25*time.Second {
		t.Fatalf("ExpirationAge = %v, want 25s (eq. 3: lifetime/hits)", got)
	}
	// Defensive: zero hit counter must not divide by zero.
	z := &Entry{Doc: doc("z", 1), EnteredAt: at(0), Hits: 0}
	if got := l.ExpirationAge(z, at(100)); got != 100*time.Second {
		t.Fatalf("ExpirationAge(0 hits) = %v, want 100s", got)
	}
}

func TestLFUStoreIntegration(t *testing.T) {
	s := mustStore(t, Config{Capacity: 30, Policy: NewLFU()})
	for i, u := range []string{"a", "b", "c"} {
		if _, err := s.Put(doc(u, 10), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Hit a twice and c once; b stays at 1 → victim.
	s.Get("a", at(10))
	s.Get("a", at(11))
	s.Get("c", at(12))
	evicted, err := s.Put(doc("d", 10), at(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Doc.URL != "b" {
		t.Fatalf("evicted %+v, want [b]", evicted)
	}
}

func TestNewPolicy(t *testing.T) {
	lru, _ := NewPolicy("lru")
	if _, ok := lru.(*LRU); !ok {
		t.Fatalf("NewPolicy(lru) = %T", lru)
	}
	lfu, _ := NewPolicy("lfu")
	if _, ok := lfu.(*LFU); !ok {
		t.Fatalf("NewPolicy(lfu) = %T", lfu)
	}
	for _, name := range []string{"bogus", "gds", "size", "lfuda"} {
		if _, ok := NewPolicy(name); ok {
			t.Fatalf("NewPolicy(%q) succeeded", name)
		}
	}
}
