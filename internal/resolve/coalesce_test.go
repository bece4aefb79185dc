package resolve

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/race"
)

// lockedStore is a concurrency-safe LocalStore for the coalescing tests
// (the plain fakeStore is single-threaded by design).
type lockedStore struct {
	mu   sync.Mutex
	docs map[string]cache.Document
}

func newLockedStore() *lockedStore {
	return &lockedStore{docs: map[string]cache.Document{}}
}

func (s *lockedStore) Lookup(_ any, url string, _ time.Time) (cache.Document, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc, ok := s.docs[url]
	return doc, ok
}

func (s *lockedStore) ExpirationAge(time.Time) time.Duration { return cache.NoContention }

func (s *lockedStore) StoreCopy(doc cache.Document, _ time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[doc.URL] = doc
	return true
}

// herdTransport is an origin-only transport that counts every fetch,
// fails the first failFirst of them, and blocks the i-th fetch on
// gates[i] (when present) so tests can hold an epoch's leader inside the
// origin until the rest of the herd is parked behind it.
type herdTransport struct {
	gates     []chan struct{}
	failFirst int32
	calls     atomic.Int32
}

func (t *herdTransport) FetchRemote(any, Candidate, string, int64, time.Duration, bool, time.Time) (Remote, FetchStatus) {
	return Remote{}, FetchFailed
}
func (t *herdTransport) ParentID() (string, bool) { return "", false }
func (t *herdTransport) FetchParent(any, string, int64, time.Duration, time.Time) (Remote, error) {
	return Remote{}, errors.New("no parent")
}
func (t *herdTransport) HasOrigin() bool { return true }

func (t *herdTransport) FetchOrigin(_ any, url string, sizeHint int64, _ time.Duration, _ time.Time) (cache.Document, error) {
	n := t.calls.Add(1)
	if int(n) <= len(t.gates) && t.gates[n-1] != nil {
		<-t.gates[n-1]
	}
	if n <= t.failFirst {
		return cache.Document{}, errors.New("origin overloaded")
	}
	return cache.Document{URL: url, Size: sizeHint}, nil
}

// herdEngine builds an engine with coalescing on and follower/election
// counters wired like the live node's.
func herdEngine(tr *herdTransport) (*Engine, *atomic.Int32, *atomic.Int32, *atomic.Int32) {
	var followers, elections, retries atomic.Int32
	co := NewCoalescer()
	co.OnFollower = func(string) { followers.Add(1) }
	co.OnElect = func(_ string, retry bool) {
		elections.Add(1)
		if retry {
			retries.Add(1)
		}
	}
	e := &Engine{
		ID:        "test herd",
		Store:     newLockedStore(),
		Scheme:    core.AdHoc{},
		Transport: tr,
		Coalescer: co,
	}
	return e, &followers, &elections, &retries
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestCoalesceCollapsesConcurrentMisses is the herd scenario at engine
// level: 64 concurrent misses for one URL produce exactly one origin
// fetch. The origin is gated until every follower has joined the flight,
// so the count is deterministic, not a scheduling accident.
func TestCoalesceCollapsesConcurrentMisses(t *testing.T) {
	const herd = 64
	gate := make(chan struct{})
	tr := &herdTransport{gates: []chan struct{}{gate}}
	e, followers, elections, retries := herdEngine(tr)

	var wg sync.WaitGroup
	results := make([]Result, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Resolve(nil, "http://hot/doc", 4096, at(0))
		}(i)
	}
	// One leader is inside the gated origin fetch; release it only once
	// the other 63 are all parked on its flight.
	waitFor(t, func() bool { return followers.Load() == herd-1 })
	close(gate)
	wg.Wait()

	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("origin fetches = %d, want exactly 1", got)
	}
	leaders, coalesced := 0, 0
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if results[i].Outcome != metrics.Miss || results[i].Doc.Size != 4096 {
			t.Fatalf("request %d result = %+v", i, results[i])
		}
		if results[i].Coalesced {
			coalesced++
		} else {
			leaders++
		}
	}
	if leaders != 1 || coalesced != herd-1 {
		t.Fatalf("leaders=%d coalesced=%d, want 1/%d", leaders, coalesced, herd-1)
	}
	if elections.Load() != 1 || retries.Load() != 0 {
		t.Fatalf("elections=%d retries=%d", elections.Load(), retries.Load())
	}
}

// TestCoalesceLeaderFailureElectsOneRetry: the leader's fetch fails with
// a full herd parked behind it. The failure must not restampede — the
// woken followers elect exactly one new leader, whose single fetch
// serves everyone else.
func TestCoalesceLeaderFailureElectsOneRetry(t *testing.T) {
	const herd = 32
	g1, g2 := make(chan struct{}), make(chan struct{})
	tr := &herdTransport{gates: []chan struct{}{g1, g2}, failFirst: 1}
	e, followers, _, retries := herdEngine(tr)

	var wg sync.WaitGroup
	var failed, led, coalesced atomic.Int32
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Resolve(nil, "http://hot/doc", 512, at(0))
			switch {
			case err != nil:
				failed.Add(1)
			case res.Coalesced:
				coalesced.Add(1)
			default:
				led.Add(1)
			}
		}()
	}
	// Hold the doomed first fetch until the whole herd is parked, then
	// let it fail; hold the retry fetch until every woken follower has
	// re-joined behind the new leader, so exactly one retry epoch exists.
	waitFor(t, func() bool { return followers.Load() == herd-1 })
	close(g1)
	waitFor(t, func() bool { return followers.Load() == 2*herd-3 })
	close(g2)
	wg.Wait()

	// The first leader's caller sees the error (its fetch genuinely
	// failed); everyone who waited is served by the one retry epoch.
	if failed.Load() != 1 || led.Load() != 1 || coalesced.Load() != herd-2 {
		t.Fatalf("failed=%d led=%d coalesced=%d, want 1/1/%d",
			failed.Load(), led.Load(), coalesced.Load(), herd-2)
	}
	if got := tr.calls.Load(); got != 2 {
		t.Fatalf("origin fetches = %d, want 2 (failed epoch + retry epoch)", got)
	}
	if retries.Load() != 1 {
		t.Fatalf("retry elections = %d, want 1", retries.Load())
	}
}

// TestCoalesceBoundedRetryPropagatesError: when the retry epoch fails
// too, followers give up with the error instead of electing a third
// leader — the retry budget is one.
func TestCoalesceBoundedRetryPropagatesError(t *testing.T) {
	g1 := make(chan struct{})
	tr := &herdTransport{gates: []chan struct{}{g1}, failFirst: 1 << 30}
	e, followers, _, _ := herdEngine(tr)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Resolve(nil, "http://hot/doc", 512, at(0))
		}(i)
	}
	waitFor(t, func() bool { return followers.Load() == 1 })
	close(g1)
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d succeeded against an always-failing origin", i)
		}
	}
	if got := tr.calls.Load(); got != 2 {
		t.Fatalf("origin fetches = %d, want 2 (the follower's one bounded retry)", got)
	}
}

// TestCoalesceSerializedIsNoOp: requests that never overlap must behave
// exactly as without a Coalescer — no followers, no retry elections, no
// Coalesced results. This is the property the sim↔live parity gate
// relies on.
func TestCoalesceSerializedIsNoOp(t *testing.T) {
	tr := &herdTransport{}
	e, followers, elections, retries := herdEngine(tr)

	res, err := e.Resolve(nil, "http://a/", 100, at(0))
	if err != nil || res.Outcome != metrics.Miss || res.Coalesced {
		t.Fatalf("first request: res=%+v err=%v", res, err)
	}
	res, err = e.Resolve(nil, "http://a/", 100, at(1))
	if err != nil || res.Outcome != metrics.LocalHit || res.Coalesced {
		t.Fatalf("second request: res=%+v err=%v", res, err)
	}
	res, err = e.Resolve(nil, "http://b/", 100, at(2))
	if err != nil || res.Outcome != metrics.Miss || res.Coalesced {
		t.Fatalf("third request: res=%+v err=%v", res, err)
	}
	if followers.Load() != 0 || retries.Load() != 0 {
		t.Fatalf("followers=%d retries=%d, want single-flight no-op", followers.Load(), retries.Load())
	}
	if elections.Load() != 2 {
		t.Fatalf("elections=%d, want one per serialized miss", elections.Load())
	}
}

// mixTransport serves two kinds of URL: "http://solo/<n>" documents are
// never contended and fail when their size hint is odd; hotURL is the
// herd's document, whose i-th fetch blocks on hotGates[i] and fails while
// i < hotFailFirst. The embedded herdTransport supplies the remote and
// parent paths only.
type mixTransport struct {
	herdTransport
	hotURL       string
	hotCalls     atomic.Int32
	hotGates     []chan struct{}
	hotFailFirst int32
}

func (t *mixTransport) FetchOrigin(_ any, url string, sizeHint int64, _ time.Duration, _ time.Time) (cache.Document, error) {
	if url != t.hotURL {
		if sizeHint%2 == 1 {
			return cache.Document{}, errors.New("solo origin down")
		}
		return cache.Document{URL: url, Size: sizeHint}, nil
	}
	n := t.hotCalls.Add(1)
	<-t.hotGates[n-1]
	if n <= t.hotFailFirst {
		return cache.Document{}, errors.New("hot origin overloaded")
	}
	return cache.Document{URL: url, Size: sizeHint}, nil
}

// TestCoalesceSoloFlightsInterleavedWithHerd runs leader-only flights —
// each a different URL, every other one failing — before, during and
// after a 32-way herd on one hot URL whose first epoch fails. A flight
// must never show a requester anything but its own epoch's outcome: solo
// requests get their own document or their own error, every follower gets
// the hot document, each hot epoch fetches upstream exactly once, and the
// failed leader is replaced by exactly one retry epoch.
func TestCoalesceSoloFlightsInterleavedWithHerd(t *testing.T) {
	const (
		herd    = 32
		hotURL  = "http://hot/doc"
		hotSize = 7777
	)
	g1, g2 := make(chan struct{}), make(chan struct{})
	tr := &mixTransport{hotURL: hotURL, hotGates: []chan struct{}{g1, g2}, hotFailFirst: 1}
	var followers, retries atomic.Int32
	co := NewCoalescer()
	co.OnFollower = func(string) { followers.Add(1) }
	co.OnElect = func(_ string, retry bool) {
		if retry {
			retries.Add(1)
		}
	}
	e := &Engine{ID: "test mix", Store: newLockedStore(), Scheme: core.AdHoc{}, Transport: tr, Coalescer: co}

	var soloN atomic.Int64
	solo := func() {
		n := soloN.Add(1)
		url := "http://solo/" + strconv.FormatInt(n, 10)
		res, err := e.Resolve(nil, url, n, at(0))
		switch {
		case n%2 == 1:
			if err == nil || err.Error() != "solo origin down" {
				t.Errorf("solo %d: res=%+v err=%v, want its own origin error", n, res, err)
			}
		case err != nil || res.Coalesced || res.Doc.URL != url || res.Doc.Size != n:
			t.Errorf("solo %d: res=%+v err=%v, want its own document", n, res, err)
		}
	}
	for i := 0; i < 16; i++ {
		solo()
	}

	var wg sync.WaitGroup
	var failed, led, coalesced atomic.Int32
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Resolve(nil, hotURL, hotSize, at(0))
			switch {
			case err != nil:
				if err.Error() != "hot origin overloaded" {
					t.Errorf("herd member failed with %v", err)
				}
				failed.Add(1)
			case res.Doc.URL != hotURL || res.Doc.Size != hotSize:
				t.Errorf("herd member got %+v, want the hot document", res)
			case res.Coalesced:
				coalesced.Add(1)
			default:
				led.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	var soloWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		soloWG.Add(1)
		go func() {
			defer soloWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					solo()
				}
			}
		}()
	}
	waitFor(t, func() bool { return followers.Load() == herd-1 })
	close(g1)
	waitFor(t, func() bool { return followers.Load() == 2*herd-3 })
	close(g2)
	wg.Wait()
	close(stop)
	soloWG.Wait()
	for i := 0; i < 16; i++ {
		solo()
	}

	if failed.Load() != 1 || led.Load() != 1 || coalesced.Load() != herd-2 {
		t.Fatalf("failed=%d led=%d coalesced=%d, want 1/1/%d", failed.Load(), led.Load(), coalesced.Load(), herd-2)
	}
	if got := tr.hotCalls.Load(); got != 2 {
		t.Fatalf("hot origin fetches = %d, want 2 (failed epoch + retry epoch)", got)
	}
	if retries.Load() != 1 {
		t.Fatalf("retry elections = %d, want 1", retries.Load())
	}
}

// TestResolveMissAllocBudget: a miss no other request is waiting on costs
// the engine and its Coalescer nothing — the flight comes off the free
// stack and no channel is made.
func TestResolveMissAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	store := newFakeStore(cache.NoContention)
	store.tooBig = 0 // keeps nothing: every request is an origin miss
	e := &Engine{ID: "test alloc", Store: store, Scheme: core.AdHoc{}, Transport: &herdTransport{}, Coalescer: NewCoalescer()}
	resolve := func() {
		if _, err := e.Resolve(nil, "http://a/", 100, at(0)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, resolve); allocs != 0 {
		t.Errorf("Resolve of an origin miss: %.2f allocs, want 0", allocs)
	}
}
