package cache

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// op is a randomised store operation for property tests.
type op struct {
	Kind  uint8
	URL   uint8 // small URL space to force collisions and evictions
	Size  uint8
	Delta uint8 // seconds advanced before the op
}

func (o op) url() string { return fmt.Sprintf("doc-%d", o.URL%32) }

func (o op) size() int64 { return int64(o.Size%40) + 1 }

// applyOps drives a store through a random operation sequence, returning
// the final simulated time.
func applyOps(t *testing.T, s *Store, ops []op) time.Time {
	t.Helper()
	now := at(0)
	for _, o := range ops {
		now = now.Add(time.Duration(o.Delta) * time.Second)
		switch o.Kind % 5 {
		case 0, 1:
			if _, err := s.Put(Document{URL: o.url(), Size: o.size()}, now); err != nil &&
				!errors.Is(err, ErrTooLarge) {
				t.Fatalf("Put: %v", err)
			}
		case 2:
			s.Get(o.url(), now)
		case 3:
			s.Touch(o.url(), now)
		case 4:
			s.Remove(o.url())
		}
	}
	return now
}

func TestQuickStoreInvariants(t *testing.T) {
	for _, policy := range []string{"lru", "lfu"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			f := func(ops []op, capSeed uint8) bool {
				p, _ := NewPolicy(policy)
				capacity := int64(capSeed%120) + 20
				s, err := New(Config{Capacity: capacity, Policy: p})
				if err != nil {
					return false
				}
				now := applyOps(t, s, ops)

				// Invariant 1: used bytes never exceed capacity and
				// always equal the sum of resident sizes.
				var sum int64
				for _, u := range s.URLs() {
					d, ok := s.Peek(u)
					if !ok {
						return false
					}
					sum += d.Size
				}
				if sum != s.Used() || s.Used() > s.Capacity() {
					return false
				}
				// Invariant 2: Len agrees with URLs.
				if s.Len() != len(s.URLs()) {
					return false
				}
				// Invariant 3: expiration age is non-negative or
				// NoContention.
				age := s.ExpirationAge(now)
				if age < 0 {
					return false
				}
				// Invariant 4: insertions - evictions - removals
				// bookkeeping is consistent: evictions never exceed
				// insertions.
				return s.Evictions() <= s.Insertions()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQuickEvictionAgesWithinLifetime(t *testing.T) {
	// For every policy, a victim's expiration age is never negative and
	// (for the LRU form) never exceeds its residency time.
	f := func(ops []op) bool {
		s, err := New(Config{Capacity: 64})
		if err != nil {
			return false
		}
		now := at(0)
		for _, o := range ops {
			now = now.Add(time.Duration(o.Delta) * time.Second)
			evs, err := s.Put(Document{URL: o.url(), Size: o.size()}, now)
			if err != nil && !errors.Is(err, ErrTooLarge) {
				return false
			}
			for _, ev := range evs {
				if ev.Age < 0 || ev.ResidencyTime < 0 || ev.Age > ev.ResidencyTime {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLRUMatchesReferenceModel(t *testing.T) {
	// The intrusive LRU store must agree with a trivially correct
	// reference model (slice ordered by recency) on what is resident.
	f := func(ops []op) bool {
		const capacity = 50
		s, err := New(Config{Capacity: capacity})
		if err != nil {
			return false
		}
		type refEntry struct {
			url  string
			size int64
		}
		var ref []refEntry // index 0 = LRU, last = MRU
		refFind := func(u string) int {
			for i, e := range ref {
				if e.url == u {
					return i
				}
			}
			return -1
		}
		refUsed := func() int64 {
			var n int64
			for _, e := range ref {
				n += e.size
			}
			return n
		}

		now := at(0)
		for _, o := range ops {
			now = now.Add(time.Duration(o.Delta) * time.Second)
			u, size := o.url(), o.size()
			switch o.Kind % 4 {
			case 0, 1: // put
				if size > capacity {
					break
				}
				if i := refFind(u); i >= 0 {
					ref[i].size = size
					e := ref[i]
					ref = append(append(ref[:i:i], ref[i+1:]...), e)
				} else {
					ref = append(ref, refEntry{url: u, size: size})
				}
				for refUsed() > capacity {
					// Evict LRU entries, but never the one just used.
					for i := range ref {
						if ref[i].url != u {
							ref = append(ref[:i:i], ref[i+1:]...)
							break
						}
					}
				}
				if _, err := s.Put(Document{URL: u, Size: size}, now); err != nil &&
					!errors.Is(err, ErrTooLarge) {
					return false
				}
			case 2: // get
				if i := refFind(u); i >= 0 {
					e := ref[i]
					ref = append(append(ref[:i:i], ref[i+1:]...), e)
				}
				s.Get(u, now)
			case 3: // remove
				if i := refFind(u); i >= 0 {
					ref = append(ref[:i:i], ref[i+1:]...)
				}
				s.Remove(u)
			}

			if len(ref) != s.Len() {
				return false
			}
			for _, e := range ref {
				d, ok := s.Peek(e.url)
				if !ok || d.Size != e.size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
