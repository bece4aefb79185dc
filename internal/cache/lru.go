package cache

import "time"

// LRU is the Least Recently Used replacement policy, the default in the
// paper's experiments. It keeps an intrusive doubly-linked list ordered from
// most recently used (head) to least recently used (tail); the tail is the
// eviction victim.
//
// Its document expiration age is the paper's eq. 2: the time between the
// document's last hit and its removal.
type LRU struct {
	// sentinel ring: head.next = MRU, head.prev = LRU victim
	head Entry
	size int
}

var _ Policy = (*LRU)(nil)

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	l := &LRU{}
	l.head.next = &l.head
	l.head.prev = &l.head
	return l
}

// NewPolicy builds one of the paper's two replacement policies by name:
// "lru" or "lfu".
func NewPolicy(name string) (Policy, bool) {
	switch name {
	case "lru":
		return NewLRU(), true
	case "lfu":
		return NewLFU(), true
	default:
		return nil, false
	}
}

// Add implements Policy: new entries are most recently used.
func (l *LRU) Add(e *Entry) {
	l.pushFront(e)
	l.size++
}

// Touch implements Policy: a hit (or EA promotion) moves the entry to the
// head of the list, exactly the paper's "promoted to the HEAD of the LRU
// list".
func (l *LRU) Touch(e *Entry) {
	l.unlink(e)
	l.pushFront(e)
}

// Remove implements Policy.
func (l *LRU) Remove(e *Entry) {
	l.unlink(e)
	e.prev, e.next = nil, nil
	l.size--
}

// Victim implements Policy: the least recently used entry.
func (l *LRU) Victim() *Entry {
	if l.size == 0 {
		return nil
	}
	return l.head.prev
}

// ExpirationAge implements Policy with eq. 2: (T1 - T0) where T1 is removal
// time and T0 the last hit.
func (l *LRU) ExpirationAge(e *Entry, now time.Time) time.Duration {
	return now.Sub(e.LastHit)
}

// Len returns the number of tracked entries.
func (l *LRU) Len() int { return l.size }

// Order returns the tracked URLs from most to least recently used, for
// tests.
func (l *LRU) Order() []string {
	out := make([]string, 0, l.size)
	for e := l.head.next; e != &l.head; e = e.next {
		out = append(out, e.Doc.URL)
	}
	return out
}

func (l *LRU) pushFront(e *Entry) {
	e.prev = &l.head
	e.next = l.head.next
	e.prev.next = e
	e.next.prev = e
}

func (l *LRU) unlink(e *Entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}
