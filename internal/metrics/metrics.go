// Package metrics collects the performance measures the paper evaluates:
// cumulative document hit rate, cumulative byte hit rate, local/remote hit
// split, average cache expiration age, and the estimated average document
// latency of equation 6.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Outcome classifies how one client request was served.
type Outcome int

// Outcome values.
const (
	// LocalHit: the document was in the cache the client asked.
	LocalHit Outcome = iota + 1
	// RemoteHit: the document came from another cache in the group.
	RemoteHit
	// Miss: the document had to be fetched from the origin server.
	Miss
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case LocalHit:
		return "local-hit"
	case RemoteHit:
		return "remote-hit"
	case Miss:
		return "miss"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Counters accumulates request outcomes. The zero value is ready to use.
// All methods are safe for concurrent use: the fields are atomics, so a
// scrape (Snapshot) can run concurrently with Record on the request path.
// Read values through Snapshot or the rate helpers.
type Counters struct {
	requests   atomic.Int64
	localHits  atomic.Int64
	remoteHits atomic.Int64
	misses     atomic.Int64

	bytesRequested atomic.Int64
	bytesLocal     atomic.Int64
	bytesRemote    atomic.Int64
	bytesMissed    atomic.Int64

	// simLatency sums per-request simulated latencies in nanoseconds, if
	// the caller applies a latency model per request.
	simLatency atomic.Int64
}

// Record adds one request with the given outcome and size.
func (c *Counters) Record(o Outcome, size int64) {
	c.requests.Add(1)
	c.bytesRequested.Add(size)
	switch o {
	case LocalHit:
		c.localHits.Add(1)
		c.bytesLocal.Add(size)
	case RemoteHit:
		c.remoteHits.Add(1)
		c.bytesRemote.Add(size)
	default:
		c.misses.Add(1)
		c.bytesMissed.Add(size)
	}
}

// AddSimLatency folds one request's modelled latency into the sum.
func (c *Counters) AddSimLatency(d time.Duration) {
	c.simLatency.Add(int64(d))
}

// Add merges a snapshot into c.
func (c *Counters) Add(s CountersSnapshot) {
	c.requests.Add(s.Requests)
	c.localHits.Add(s.LocalHits)
	c.remoteHits.Add(s.RemoteHits)
	c.misses.Add(s.Misses)
	c.bytesRequested.Add(s.BytesRequested)
	c.bytesLocal.Add(s.BytesLocal)
	c.bytesRemote.Add(s.BytesRemote)
	c.bytesMissed.Add(s.BytesMissed)
	c.simLatency.Add(int64(s.SimLatency))
}

// Snapshot returns a plain-value copy of the counters. Each field is read
// atomically; a snapshot taken mid-Record may be off by the in-flight
// request, which is the usual (and harmless) scrape semantics. The split
// counters are loaded before the totals: Record increments the total
// first, so a concurrent snapshot can observe a request not yet
// attributed to an outcome but never an outcome split exceeding the
// total — scrapers may rely on LocalHits+RemoteHits+Misses <= Requests.
func (c *Counters) Snapshot() CountersSnapshot {
	s := CountersSnapshot{
		LocalHits:   c.localHits.Load(),
		RemoteHits:  c.remoteHits.Load(),
		Misses:      c.misses.Load(),
		BytesLocal:  c.bytesLocal.Load(),
		BytesRemote: c.bytesRemote.Load(),
		BytesMissed: c.bytesMissed.Load(),
		SimLatency:  time.Duration(c.simLatency.Load()),
	}
	s.Requests = c.requests.Load()
	s.BytesRequested = c.bytesRequested.Load()
	return s
}

// Rate helpers delegating to a point-in-time snapshot, so existing callers
// keep reading rates straight off the accumulator.

// HitRate returns the cumulative document hit rate.
func (c *Counters) HitRate() float64 { return c.Snapshot().HitRate() }

// ByteHitRate returns the cumulative byte hit rate.
func (c *Counters) ByteHitRate() float64 { return c.Snapshot().ByteHitRate() }

// LocalHitRate returns local hits over requests.
func (c *Counters) LocalHitRate() float64 { return c.Snapshot().LocalHitRate() }

// RemoteHitRate returns remote hits over requests.
func (c *Counters) RemoteHitRate() float64 { return c.Snapshot().RemoteHitRate() }

// MissRate returns misses over requests.
func (c *Counters) MissRate() float64 { return c.Snapshot().MissRate() }

// MeanSimLatency returns the mean simulated per-request latency.
func (c *Counters) MeanSimLatency() time.Duration { return c.Snapshot().MeanSimLatency() }

// CountersSnapshot is a plain-value copy of Counters — the type reports
// and tests consume, with the cumulative measures the paper evaluates.
type CountersSnapshot struct {
	Requests   int64
	LocalHits  int64
	RemoteHits int64
	Misses     int64

	BytesRequested int64
	BytesLocal     int64
	BytesRemote    int64
	BytesMissed    int64

	// SimLatency is the sum of per-request simulated latencies, if the
	// caller applied a latency model per request.
	SimLatency time.Duration
}

// Add merges other into s.
func (s *CountersSnapshot) Add(other CountersSnapshot) {
	s.Requests += other.Requests
	s.LocalHits += other.LocalHits
	s.RemoteHits += other.RemoteHits
	s.Misses += other.Misses
	s.BytesRequested += other.BytesRequested
	s.BytesLocal += other.BytesLocal
	s.BytesRemote += other.BytesRemote
	s.BytesMissed += other.BytesMissed
	s.SimLatency += other.SimLatency
}

// Hits returns local + remote hits.
func (s CountersSnapshot) Hits() int64 { return s.LocalHits + s.RemoteHits }

// HitRate returns the cumulative document hit rate: hits anywhere in the
// group over total requests.
func (s CountersSnapshot) HitRate() float64 { return ratio(s.Hits(), s.Requests) }

// ByteHitRate returns the cumulative byte hit rate: bytes served from the
// group over bytes requested.
func (s CountersSnapshot) ByteHitRate() float64 {
	return ratio(s.BytesLocal+s.BytesRemote, s.BytesRequested)
}

// LocalHitRate returns local hits over requests.
func (s CountersSnapshot) LocalHitRate() float64 { return ratio(s.LocalHits, s.Requests) }

// RemoteHitRate returns remote hits over requests.
func (s CountersSnapshot) RemoteHitRate() float64 { return ratio(s.RemoteHits, s.Requests) }

// MissRate returns misses over requests.
func (s CountersSnapshot) MissRate() float64 { return ratio(s.Misses, s.Requests) }

// MeanSimLatency returns the mean simulated per-request latency.
func (s CountersSnapshot) MeanSimLatency() time.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.SimLatency / time.Duration(s.Requests)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// LatencyModel holds the three service latencies the paper measured on its
// testbed and uses in equation 6.
type LatencyModel struct {
	// LocalHit is LHL, the latency of serving a document from the cache
	// the client asked (paper: 146ms for a 4KB document).
	LocalHit time.Duration
	// RemoteHit is RHL, the latency of fetching from another cache in the
	// group (paper: 342ms).
	RemoteHit time.Duration
	// Miss is ML, the latency of fetching from the origin server
	// (paper: 2784ms, the mean over a set of web sites).
	Miss time.Duration
}

// PaperLatencies is the latency model measured in §4.2 of the paper.
var PaperLatencies = LatencyModel{
	LocalHit:  146 * time.Millisecond,
	RemoteHit: 342 * time.Millisecond,
	Miss:      2784 * time.Millisecond,
}

// Of returns the model latency for one outcome.
func (m LatencyModel) Of(o Outcome) time.Duration {
	switch o {
	case LocalHit:
		return m.LocalHit
	case RemoteHit:
		return m.RemoteHit
	default:
		return m.Miss
	}
}

// EstimatedAverageLatency evaluates the paper's equation 6:
//
//	(LHR*LHL + RHR*RHL + MR*ML) / (LHR + RHR + MR)
//
// over the recorded outcome mix.
func (m LatencyModel) EstimatedAverageLatency(s CountersSnapshot) time.Duration {
	if s.Requests == 0 {
		return 0
	}
	total := float64(s.LocalHits)*m.LocalHit.Seconds() +
		float64(s.RemoteHits)*m.RemoteHit.Seconds() +
		float64(s.Misses)*m.Miss.Seconds()
	return time.Duration(total / float64(s.Requests) * float64(time.Second))
}
