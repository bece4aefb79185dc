package resolve

// Single-flight request coalescing: the engine's defence against the
// thundering herd. Under Zipf-skewed traffic a popular document expiring
// (or being evicted) triggers N simultaneous misses for one URL; without
// coalescing every one of them runs the full miss path — N ICP fan-outs,
// N origin fetches — which is exactly the uncoordinated-fetch overload
// the cooperative-caching literature warns about. With a Coalescer
// configured, concurrent misses for one URL collapse into a single
// leader resolution: the first requester in becomes the leader and runs
// the lifecycle (locate → remote fetch → parent/origin), every other
// requester becomes a follower that blocks on the leader's flight and
// shares its body and EA placement decision verbatim.
//
// Leader failure must not restampede: when the leader's resolution
// errors, its followers wake with the error and each performs exactly
// one bounded retry by re-joining the flight table — one of them is
// elected the new leader for the retry epoch, the rest coalesce behind
// it again. A second failed epoch propagates the error to everyone.
// Each request therefore participates in at most two epochs, and each
// epoch sends exactly one resolution upstream, however many requesters
// are piled up behind it.

import (
	"sync"
	"time"

	"eacache/internal/metrics"
)

// Coalescer is the engine's single-flight table, keyed by URL. The zero
// value is not usable; construct with NewCoalescer. One Coalescer serves
// one Engine; all methods are safe for concurrent use.
type Coalescer struct {
	// OnFollower, when set, observes each request that joined an
	// existing flight instead of resolving for itself. Called without
	// internal locks held; must be safe for concurrent use.
	OnFollower func(url string)
	// OnElect, when set, observes each leader election. retry is true
	// when the new leader replaces one whose resolution failed (a
	// follower's bounded retry), false for the first epoch of a flight.
	OnElect func(url string, retry bool)

	mu      sync.Mutex
	flights map[string]*flight
	// free holds flights that retired without a follower: no goroutine
	// but the Coalescer ever saw them, so the next leader may take one.
	free []*flight
}

// maxFreeFlights bounds the free stack; a deeper burst of concurrent
// leaders allocates as before.
const maxFreeFlights = 64

// flight is one leader epoch for one URL. done stays nil until the first
// follower joins and makes it (under Coalescer.mu); a leader with
// followers publishes res/err and closes done exactly once, and followers
// only ever read after <-done. A leader nobody followed publishes
// nothing, so a flight on the free stack is always the zero value.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// NewCoalescer returns an empty single-flight table.
func NewCoalescer() *Coalescer {
	return &Coalescer{flights: make(map[string]*flight)}
}

// join returns the current flight for url, electing the caller leader
// when none is in progress. retry marks the join as a follower's
// post-failure retry, forwarded to OnElect.
func (c *Coalescer) join(url string, retry bool) (*flight, bool) {
	c.mu.Lock()
	if f, ok := c.flights[url]; ok {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		c.mu.Unlock()
		if c.OnFollower != nil {
			c.OnFollower(url)
		}
		return f, false
	}
	var f *flight
	if n := len(c.free); n > 0 {
		f, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	} else {
		f = new(flight)
	}
	c.flights[url] = f
	c.mu.Unlock()
	if c.OnElect != nil {
		c.OnElect(url, retry)
	}
	return f, true
}

// finish publishes the leader's outcome and retires the flight. The
// table entry is removed before done is closed, so a follower that wakes
// to a failure and re-joins can only land on a fresh epoch, never on the
// dead one. Once the entry is gone no follower can join, so a done still
// nil under the lock means nobody holds the flight: it goes back on the
// free stack untouched. A flight with followers is never reused.
func (c *Coalescer) finish(url string, f *flight, res Result, err error) {
	c.mu.Lock()
	if c.flights[url] == f {
		delete(c.flights, url)
	}
	done := f.done
	if done == nil && len(c.free) < maxFreeFlights {
		c.free = append(c.free, f)
	}
	c.mu.Unlock()
	if done == nil {
		return
	}
	f.res, f.err = res, err
	close(done)
}

// resolveCoalesced is the single-flight wrapper around the miss-path
// lifecycle: lead it, or follow the requester that already is.
func (e *Engine) resolveCoalesced(rctx any, hooks Hooks, url string, sizeHint int64, now time.Time) (Result, error) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// This is a follower's bounded retry after a leader failure.
			// A sibling's retry epoch may already have succeeded and
			// stored the document while this goroutine was waking up;
			// serve it locally rather than electing yet another leader.
			if doc, ok := e.Store.Lookup(rctx, url, now); ok {
				return Result{Outcome: metrics.LocalHit, Doc: doc, Coalesced: true}, nil
			}
		}
		f, leader := e.Coalescer.join(url, attempt > 0)
		if leader {
			res, err := e.resolveMissPath(rctx, hooks, url, sizeHint, now)
			e.Coalescer.finish(url, f, res, err)
			return res, err
		}
		<-f.done
		if f.err == nil {
			// Share the leader's body and placement decision. The copy
			// (if the scheme kept one) is already in the local store —
			// the leader stored it before retiring the flight — so the
			// follower serves the leader's document directly.
			res := f.res
			res.Coalesced = true
			return res, nil
		}
		if attempt > 0 {
			// Both the original leader and the retry epoch failed:
			// propagate rather than stampede.
			return Result{}, f.err
		}
		// Leader failed. The woken followers race to re-join: exactly
		// one is elected the retry epoch's leader, the rest coalesce
		// behind it — one more upstream attempt total, not N.
	}
}
