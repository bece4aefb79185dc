package cache

import "time"

// LFU is the Least Frequently Used replacement policy (paper §3.2.2). The
// victim is the entry with the smallest HIT-COUNTER; ties are broken toward
// the least recently hit entry so the policy stays deterministic and does
// not starve on cold documents.
//
// Its document expiration age is the paper's eq. 3: the document's lifetime
// divided by its HIT-COUNTER — the average time between hits, which
// approximates how long the document is expected to live after its last hit.
type LFU struct {
	h *entryHeap
}

var _ Policy = (*LFU)(nil)

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{h: newEntryHeap(func(a, b *Entry) bool {
		if a.Hits != b.Hits {
			return a.Hits < b.Hits
		}
		return a.LastHit.Before(b.LastHit)
	})}
}

// Add implements Policy.
func (l *LFU) Add(e *Entry) { l.h.add(e) }

// Touch implements Policy: the Store already bumped the hit counter, so the
// entry's heap position is re-established.
func (l *LFU) Touch(e *Entry) { l.h.fix(e) }

// Remove implements Policy.
func (l *LFU) Remove(e *Entry) { l.h.remove(e) }

// Victim implements Policy: the least frequently used entry.
func (l *LFU) Victim() *Entry { return l.h.min() }

// ExpirationAge implements Policy with eq. 3: (TR - T0) / HIT-COUNTER.
func (l *LFU) ExpirationAge(e *Entry, now time.Time) time.Duration {
	hits := e.Hits
	if hits < 1 {
		hits = 1
	}
	return now.Sub(e.EnteredAt) / time.Duration(hits)
}

// Len returns the number of tracked entries.
func (l *LFU) Len() int { return l.h.Len() }
