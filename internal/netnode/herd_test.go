package netnode

// Thundering-herd tests: many concurrent requesters hitting one missing
// URL on a live node must collapse into single-flight leader epochs —
// exactly one origin fetch per epoch — with the overload layer's
// shedding and upstream bounds behaving as configured.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/faults"
	"eacache/internal/hproto"
)

// gatedOrigin is an hproto origin whose responses block on gate, so a
// test can hold a leader inside its origin fetch while the rest of the
// herd piles up behind the flight.
type gatedOrigin struct {
	ln      net.Listener
	gate    chan struct{}
	fetches atomic.Int64
	// drop is how many of the next connections are closed unanswered, so
	// a test can make exactly that many upstream attempts fail.
	drop atomic.Int64
	wg   sync.WaitGroup
}

func startGatedOrigin(t *testing.T) *gatedOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &gatedOrigin{ln: ln, gate: make(chan struct{})}
	o.wg.Add(1)
	go o.acceptLoop()
	t.Cleanup(func() {
		_ = ln.Close()
		o.wg.Wait()
	})
	return o
}

func (o *gatedOrigin) acceptLoop() {
	defer o.wg.Done()
	for {
		conn, err := o.ln.Accept()
		if err != nil {
			return
		}
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			rec := getRec(conn)
			defer putRec(rec)
			req, err := hproto.ReadRequest(rec.br)
			if err != nil || o.drop.Add(-1) >= 0 {
				return
			}
			o.fetches.Add(1)
			<-o.gate
			size := req.SizeHint
			if size <= 0 {
				size = 4096
			}
			_ = hproto.WriteResponse(conn, hproto.Response{
				Status:        hproto.StatusOK,
				ResponderAge:  cache.NoContention,
				ContentLength: size,
				Source:        hproto.SourceOrigin,
			}, rec.zeros(size))
		}()
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestHerdCoalescesToSingleOriginFetch is the acceptance scenario over
// real sockets: 64 concurrent misses for one URL on a live node produce
// exactly one origin fetch. The origin is gated until all 63 followers
// are parked on the leader's flight, so the count is deterministic.
func TestHerdCoalescesToSingleOriginFetch(t *testing.T) {
	checkGoroutines(t)
	const herd = 64
	origin := startGatedOrigin(t)
	n := startChaosNode(t, Config{
		ID:         "herd",
		OriginAddr: origin.ln.Addr().String(),
	})

	const url = "http://herd.example.edu/hot.html"
	var wg sync.WaitGroup
	results := make([]Result, herd)
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = n.Request(url, 8192)
		}(i)
	}
	waitUntil(t, func() bool { return n.Robustness().CoalescedFollowers == herd-1 })
	close(origin.gate)
	wg.Wait()

	if got := origin.fetches.Load(); got != 1 {
		t.Fatalf("origin fetches = %d, want exactly 1 for %d concurrent misses", got, herd)
	}
	leaders, followers := 0, 0
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if results[i].Size != 8192 {
			t.Fatalf("request %d size = %d", i, results[i].Size)
		}
		if results[i].Coalesced {
			followers++
		} else {
			leaders++
		}
	}
	if leaders != 1 || followers != herd-1 {
		t.Fatalf("leaders=%d followers=%d, want 1/%d", leaders, followers, herd-1)
	}
	rb := n.Robustness()
	if rb.LeaderElections != 1 || rb.LeaderRetries != 0 || rb.Sheds != 0 {
		t.Fatalf("robustness = %+v", rb)
	}
}

// TestFrontDoorShedsOverInflightBound: with MaxInflight 1 and one request
// parked on a slow origin, the next request is refused fast with
// ErrOverloaded instead of queueing behind it.
func TestFrontDoorShedsOverInflightBound(t *testing.T) {
	checkGoroutines(t)
	origin := startGatedOrigin(t)
	n := startChaosNode(t, Config{
		ID:            "shedder",
		OriginAddr:    origin.ln.Addr().String(),
		MaxInflight:   1,
		ShedQueueWait: 5 * time.Millisecond,
	})

	done := make(chan error, 1)
	go func() {
		_, err := n.Request("http://herd.example.edu/slow.html", 1024)
		done <- err
	}()
	waitUntil(t, func() bool { return origin.fetches.Load() == 1 })

	_, err := n.Request("http://herd.example.edu/other.html", 1024)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request err = %v, want ErrOverloaded", err)
	}
	if rb := n.Robustness(); rb.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", rb.Sheds)
	}

	close(origin.gate)
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	// With the slot free again the front door admits normally.
	if _, err := n.Request("http://herd.example.edu/other.html", 1024); err != nil {
		t.Fatalf("post-drain request failed: %v", err)
	}
}

// TestUpstreamConcurrencyBounded: with OriginConcurrency 1, a second
// miss queues for the semaphore (counted) instead of reaching the origin
// while the first fetch is still in flight.
func TestUpstreamConcurrencyBounded(t *testing.T) {
	checkGoroutines(t)
	origin := startGatedOrigin(t)
	n := startChaosNode(t, Config{
		ID:                "bounded",
		OriginAddr:        origin.ln.Addr().String(),
		OriginConcurrency: 1,
	})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = n.Request(fmt.Sprintf("http://herd.example.edu/doc%d.html", i), 1024)
		}(i)
	}
	// One fetch holds the only slot inside the gated origin; the other
	// must be queued on the semaphore, not connected to the origin. The
	// waiter is counted before the winner's request reaches the origin
	// handler, so wait for both before asserting no second fetch leaked.
	waitUntil(t, func() bool {
		return n.Robustness().OriginWaits == 1 && origin.fetches.Load() == 1
	})
	if got := origin.fetches.Load(); got != 1 {
		t.Fatalf("origin fetches = %d while semaphore held, want 1", got)
	}
	close(origin.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	if got := origin.fetches.Load(); got != 2 {
		t.Fatalf("origin fetches = %d after drain, want 2", got)
	}
}

// TestUpstreamAcquireTimesOutWhenSaturated: an upstream fetch that cannot
// get a semaphore slot within the fetch budget fails instead of parking
// its goroutine forever.
func TestUpstreamAcquireTimesOutWhenSaturated(t *testing.T) {
	n := startChaosNode(t, Config{
		ID:                "saturated",
		OriginAddr:        deadTCPAddr(t),
		OriginConcurrency: 1,
		FetchTimeout:      30 * time.Millisecond,
	})
	n.originSem <- struct{}{} // steal the only slot
	defer func() { <-n.originSem }()

	if err := n.acquireUpstream(nil); err == nil {
		t.Fatal("saturated acquire succeeded")
	}
	if rb := n.Robustness(); rb.OriginWaits != 1 {
		t.Fatalf("origin waits = %d, want 1", rb.OriginWaits)
	}
}

// TestChaosHerd expires a hot document and unleashes 64 concurrent
// requesters on it while origin dials fail randomly. Invariants: no lost
// responses (every requester gets a result or an error), and exactly one
// origin dial per leader epoch — elections must equal completed origin
// fetches plus injected dial failures. Run under -race.
func TestChaosHerd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	checkGoroutines(t)
	const herd = 64

	injector, err := faults.New(faults.Config{Seed: 7, TCPDialErrRate: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	origin := startOrigin(t)
	n := startChaosNode(t, Config{
		ID:         "chaos-herd",
		Scheme:     core.EA{},
		OriginAddr: origin.Addr(),
		// One dial per leader epoch, so the epoch accounting below is
		// exact: a failed dial fails its epoch instead of retrying inside.
		FetchAttempts: 1,
		Faults:        injector,
	})

	// Warm the hot document (retrying through chaos), then expire it so
	// the herd below all miss at once.
	const url = "http://chaos.example.edu/hot.html"
	warmed := false
	for i := 0; i < 50 && !warmed; i++ {
		res, err := n.Request(url, 4096)
		warmed = err == nil && res.Stored
	}
	if !warmed {
		t.Fatal("could not warm the hot document through chaos")
	}
	if !n.store.Remove(url) {
		t.Fatal("hot document not resident after warmup")
	}

	baseFetches := origin.Fetches()
	baseDialErrs := injector.Stats().DialErrors
	baseElections := n.Robustness().LeaderElections

	var wg sync.WaitGroup
	var served, failed, coalesced atomic.Int64
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := n.Request(url, 4096)
			if err != nil {
				failed.Add(1)
				return
			}
			served.Add(1)
			if res.Coalesced {
				coalesced.Add(1)
			}
		}()
	}
	wg.Wait()

	// No lost responses: every requester came back with an answer.
	if served.Load()+failed.Load() != herd {
		t.Fatalf("responses = %d served + %d failed, want %d total", served.Load(), failed.Load(), herd)
	}
	if served.Load() == 0 {
		t.Fatal("every requester failed; with a 0.4 dial-error rate and retry epochs some must get through")
	}

	// Exactly one origin dial per leader epoch: each election made one
	// attempt, which either reached the origin or died as a dial error.
	elections := n.Robustness().LeaderElections - baseElections
	attempts := (origin.Fetches() - baseFetches) + (injector.Stats().DialErrors - baseDialErrs)
	if attempts != elections {
		t.Fatalf("origin dials %d != leader elections %d (fetches=%d dial-errors=%d): an epoch fetched more than once",
			attempts, elections,
			origin.Fetches()-baseFetches, injector.Stats().DialErrors-baseDialErrs)
	}
	if elections == 0 || elections > herd {
		t.Fatalf("leader elections = %d, want between 1 and %d", elections, herd)
	}
	t.Logf("chaos herd: %d served (%d coalesced), %d failed, %d leader epochs, %d origin fetches, %d dial errors",
		served.Load(), coalesced.Load(), failed.Load(), elections,
		origin.Fetches()-baseFetches, injector.Stats().DialErrors-baseDialErrs)
}

// TestOverloadConfigValidation: the new overload bounds follow the
// package's validation conventions — negatives rejected with the field
// named, and a wait bound without an in-flight bound rejected outright.
func TestOverloadConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Store: newStore(t, 1<<20), Scheme: core.AdHoc{},
			ICPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative OriginConcurrency", func(c *Config) { c.OriginConcurrency = -1 }},
		{"negative MaxInflight", func(c *Config) { c.MaxInflight = -1 }},
		{"negative ShedQueueWait", func(c *Config) { c.ShedQueueWait = -time.Second }},
		{"ShedQueueWait without MaxInflight", func(c *Config) { c.ShedQueueWait = time.Second }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if n, err := New(cfg); err == nil {
			_ = n.Close()
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The happy path applies defaults: zero values configure a bounded
	// upstream and leave shedding off.
	cfg := base()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if cap(n.originSem) != DefaultOriginConcurrency {
		t.Errorf("default origin semaphore = %d, want %d", cap(n.originSem), DefaultOriginConcurrency)
	}
	if n.inflight != nil {
		t.Error("shedding enabled without MaxInflight")
	}
}
