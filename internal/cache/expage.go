package cache

import (
	"fmt"
	"math"
	"time"
)

// ExpAgeTracker aggregates document expiration ages of evicted victims into
// the cache expiration age (paper eq. 5):
//
//	CacheExpAge(C, Ti, Tj) = sum(DocExpAge(D, C)) / |Victim(C, Ti, Tj)|
//
// The paper defines the average over "a finite time duration (Ti, Tj)". The
// tracker offers three views of that window:
//
//   - Time horizon: the mean over victims evicted during the last H of
//     simulated time (a sliding (Tj-H, Tj) window, the paper's definition
//     read literally). This is the live contention signal exchanged in
//     placement decisions. A time horizon makes the signal *responsive*:
//     when placement decisions concentrate documents on a low-contention
//     cache, its contention rises, its expiration age falls within H, and
//     placement shifts away — the negative feedback that spreads load
//     across the group. (A count window responds at an eviction-dependent
//     rate; a cumulative average barely responds at all and lets the
//     initially least-loaded cache hoard every shared document.)
//   - Count window: the mean over the most recent `window` evictions.
//   - Cumulative: the mean over every eviction since the cache started,
//     which is what the paper's Table 1 reports for a whole run.
//
// Before the first eviction (or with no eviction inside the horizon) there
// is no contention evidence and the windowed views return NoContention
// (+infinity): an unloaded cache always welcomes a copy.
type ExpAgeTracker struct {
	window  int
	horizon time.Duration

	ring    []expAgeSample
	ringPos int
	ringLen int
	ringSum time.Duration

	totalSum   float64 // seconds, to avoid Duration overflow over long runs
	totalCount int64
}

type expAgeSample struct {
	at  time.Time
	age time.Duration
}

// maxHorizonSamples bounds the ring of a time-horizon tracker; beyond this
// many evictions inside the horizon the oldest samples are dropped (the
// mean over the most recent maxHorizonSamples is statistically identical).
const maxHorizonSamples = 4096

// NewExpAgeTracker builds a tracker averaging over the last `window`
// evictions; WindowAll (0) makes Windowed identical to Cumulative.
func NewExpAgeTracker(window int) *ExpAgeTracker {
	t := &ExpAgeTracker{window: window}
	if window > 0 {
		t.ring = make([]expAgeSample, window)
	}
	return t
}

// NewTimeHorizonTracker builds a tracker averaging over victims evicted in
// the last horizon of (simulated) time.
func NewTimeHorizonTracker(horizon time.Duration) *ExpAgeTracker {
	if horizon <= 0 {
		return NewExpAgeTracker(WindowAll)
	}
	return &ExpAgeTracker{
		horizon: horizon,
		ring:    make([]expAgeSample, maxHorizonSamples),
	}
}

// newTracker builds the tracker a Config or ShardedConfig asks for: a
// time horizon, a count window, or (both zero) cumulative.
func newTracker(window int, horizon time.Duration) (*ExpAgeTracker, error) {
	switch {
	case window < 0:
		return nil, fmt.Errorf("cache: expiration window must be >= 0, got %d", window)
	case horizon < 0:
		return nil, fmt.Errorf("cache: expiration horizon must be >= 0, got %v", horizon)
	case window > 0 && horizon > 0:
		return nil, fmt.Errorf("cache: expiration window and horizon are mutually exclusive")
	case horizon > 0:
		return NewTimeHorizonTracker(horizon), nil
	}
	return NewExpAgeTracker(window), nil
}

// Window returns the configured count window (0 = cumulative or time
// horizon).
func (t *ExpAgeTracker) Window() int { return t.window }

// Horizon returns the configured time horizon (0 = count or cumulative).
func (t *ExpAgeTracker) Horizon() time.Duration { return t.horizon }

// Count returns the total number of recorded evictions.
func (t *ExpAgeTracker) Count() int64 { return t.totalCount }

// Record folds one victim's document expiration age, evicted at time now,
// into the tracker.
func (t *ExpAgeTracker) Record(age time.Duration, now time.Time) {
	if age < 0 {
		age = 0
	}
	t.totalSum += age.Seconds()
	t.totalCount++
	t.push(now, age)
}

// push inserts one sample into the windowed ring (a no-op for a cumulative
// tracker, which keeps no ring).
func (t *ExpAgeTracker) push(now time.Time, age time.Duration) {
	if len(t.ring) == 0 {
		return
	}
	if t.ringLen == len(t.ring) {
		// Ring full: drop the oldest sample.
		t.ringSum -= t.ring[t.ringPos].age
		t.ringPos = (t.ringPos + 1) % len(t.ring)
		t.ringLen--
	}
	// ringPos indexes the oldest sample; write at the tail.
	tail := (t.ringPos + t.ringLen) % len(t.ring)
	t.ring[tail] = expAgeSample{at: now, age: age}
	t.ringLen++
	t.ringSum += age
	if t.horizon > 0 {
		t.prune(now)
	}
}

// prune drops samples older than the horizon.
func (t *ExpAgeTracker) prune(now time.Time) {
	cutoff := now.Add(-t.horizon)
	for t.ringLen > 0 && t.ring[t.ringPos].at.Before(cutoff) {
		t.ringSum -= t.ring[t.ringPos].age
		t.ringPos = (t.ringPos + 1) % len(t.ring)
		t.ringLen--
	}
}

// WindowedAt returns the cache expiration age over the configured window as
// of time now, or NoContention when there is no contention evidence.
func (t *ExpAgeTracker) WindowedAt(now time.Time) time.Duration {
	if t.totalCount == 0 {
		return NoContention
	}
	if t.window == WindowAll && t.horizon == 0 {
		return t.Cumulative()
	}
	if t.horizon > 0 {
		t.prune(now)
	}
	if t.ringLen == 0 {
		// Nothing evicted within the horizon: no current contention.
		return NoContention
	}
	return t.ringSum / time.Duration(t.ringLen)
}

// Cumulative returns the all-time mean expiration age, or NoContention
// before the first eviction.
func (t *ExpAgeTracker) Cumulative() time.Duration {
	if t.totalCount == 0 {
		return NoContention
	}
	secs := t.totalSum / float64(t.totalCount)
	return time.Duration(secs * float64(time.Second))
}

// TrackerSample is one windowed eviction sample in a TrackerState.
type TrackerSample struct {
	// At is the eviction time.
	At time.Time
	// Age is the victim's document expiration age.
	Age time.Duration
}

// TrackerState is a serializable snapshot of an ExpAgeTracker: the window
// configuration, the cumulative totals, and the windowed samples (oldest
// first). It is the unit internal/persist writes to disk so a restarted
// cache reports the same contention signal it reported before the crash
// instead of rejoining the group with a meaningless expiration age.
type TrackerState struct {
	Window          int
	Horizon         time.Duration
	TotalSumSeconds float64
	TotalCount      int64
	Samples         []TrackerSample
}

// State exports the tracker for persistence. The returned samples are
// ordered oldest first.
func (t *ExpAgeTracker) State() TrackerState {
	st := TrackerState{
		Window:          t.window,
		Horizon:         t.horizon,
		TotalSumSeconds: t.totalSum,
		TotalCount:      t.totalCount,
	}
	if t.ringLen > 0 {
		st.Samples = make([]TrackerSample, 0, t.ringLen)
		for i := 0; i < t.ringLen; i++ {
			s := t.ring[(t.ringPos+i)%len(t.ring)]
			st.Samples = append(st.Samples, TrackerSample{At: s.at, Age: s.age})
		}
	}
	return st
}

// NewTrackerFromState rebuilds a tracker from a persisted state. The input
// is sanitized rather than trusted — a corrupted or hand-edited state file
// must not produce a tracker that panics or reports garbage: negative
// window/horizon collapse to cumulative, negative ages clamp to zero,
// non-finite or negative totals are recomputed from the samples, and a
// total count smaller than the sample count is raised to it.
func NewTrackerFromState(st TrackerState) *ExpAgeTracker {
	var t *ExpAgeTracker
	switch {
	case st.Horizon > 0:
		t = NewTimeHorizonTracker(st.Horizon)
	case st.Window > 0:
		t = NewExpAgeTracker(st.Window)
	default:
		t = NewExpAgeTracker(WindowAll)
	}
	for _, s := range st.Samples {
		age := s.Age
		if age < 0 {
			age = 0
		}
		t.push(s.At, age)
	}
	sum := st.TotalSumSeconds
	if math.IsNaN(sum) || math.IsInf(sum, 0) || sum < 0 {
		sum = t.ringSum.Seconds()
	}
	count := st.TotalCount
	if count < int64(t.ringLen) {
		count = int64(t.ringLen)
	}
	t.totalSum, t.totalCount = sum, count
	return t
}
