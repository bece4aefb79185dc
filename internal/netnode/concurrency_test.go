package netnode

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
)

func newShardedStore(t *testing.T, capacity int64, shards int) *cache.ShardedStore {
	t.Helper()
	s, err := cache.NewSharded(cache.ShardedConfig{
		Shards:            shards,
		Capacity:          capacity,
		ExpirationHorizon: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNodeConcurrentRequests hammers one live node from many goroutines
// over the real sockets: local hits, remote hits fetched from a peer, and
// origin misses all running at once. The race detector (make test-race)
// checks the lock-free request path; the assertions check that no request
// fails or misclassifies under contention.
func TestNodeConcurrentRequests(t *testing.T) {
	origin := startOrigin(t)
	a, err := New(Config{
		ID:         "a",
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      newShardedStore(t, 8<<20, 8),
		Scheme:     core.AdHoc{},
		OriginAddr: origin.Addr(),
		ICPTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b := startNode(t, "b", 8<<20, core.AdHoc{}, origin.Addr())
	mesh(a, b)

	// Warm each side: localURLs live at a (local hits), peerURLs only at
	// b (ICP remote hits for a).
	var localURLs, peerURLs []string
	for i := 0; i < 16; i++ {
		lu := fmt.Sprintf("http://local.example.edu/d%d", i)
		pu := fmt.Sprintf("http://peer.example.edu/d%d", i)
		localURLs = append(localURLs, lu)
		peerURLs = append(peerURLs, pu)
		if _, err := a.Request(lu, 1024); err != nil {
			t.Fatalf("warm a: %v", err)
		}
		if _, err := b.Request(pu, 1024); err != nil {
			t.Fatalf("warm b: %v", err)
		}
	}

	const workers = 24
	const perWorker = 30
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		outcomes = map[metrics.Outcome]int{}
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var url string
				switch i % 3 {
				case 0:
					url = localURLs[(w+i)%len(localURLs)]
				case 1:
					url = peerURLs[(w+i)%len(peerURLs)]
				default:
					url = fmt.Sprintf("http://cold.example.edu/w%d-d%d", w, i)
				}
				res, err := a.Request(url, 1024)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("worker %d request %s: %w", w, url, err)
				}
				outcomes[res.Outcome]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	total := 0
	for _, c := range outcomes {
		total += c
	}
	if total != workers*perWorker {
		t.Fatalf("served %d requests, want %d", total, workers*perWorker)
	}
	if outcomes[metrics.LocalHit] == 0 {
		t.Fatal("no local hits under concurrency")
	}
	if outcomes[metrics.RemoteHit] == 0 {
		t.Fatal("no remote hits under concurrency")
	}
	if outcomes[metrics.Miss] == 0 {
		t.Fatal("no origin misses under concurrency")
	}
	// Warm documents must still be resident and the EA signal readable.
	for _, u := range localURLs {
		if !a.Contains(u) {
			t.Fatalf("local document %s lost under concurrency", u)
		}
	}
	_ = a.ExpirationAge()
}

// Concurrent requests against a node whose peers are being swapped must
// never observe a torn peer set (race detector) nor fail.
func TestNodeConcurrentSetPeers(t *testing.T) {
	origin := startOrigin(t)
	a := startNode(t, "a", 1<<20, core.AdHoc{}, origin.Addr())
	b := startNode(t, "b", 1<<20, core.AdHoc{}, origin.Addr())
	mesh(a, b)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		peers := []Peer{{ICP: b.ICPAddr(), HTTP: b.HTTPAddr()}}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				a.SetPeers(nil)
			} else {
				a.SetPeers(peers)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := a.Request(fmt.Sprintf("http://swap.example.edu/d%d", i%20), 512); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("request %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

// TestRequestsOnOtherShardsPassAParkedOne is the property the parallel
// request path stands on, tested without a clock: one Request is parked
// inside its shard's lock (by an event sink that blocks on that URL — the
// node installs no sink of its own without Obs, DataDir or digests), and
// while it is parked, requests for 64 other resident documents must
// mostly complete. Only those that hash to the parked shard may wait; a
// lock spanning the node or the whole store would let none through.
func TestRequestsOnOtherShardsPassAParkedOne(t *testing.T) {
	origin := startOrigin(t)
	store := newShardedStore(t, 8<<20, 16)
	n, err := New(Config{
		ID:         "n",
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      store,
		Scheme:     core.EA{},
		OriginAddr: origin.Addr(),
		ICPTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })

	const parked = "http://park.example.edu/parked"
	others := make([]string, 64)
	for i := range others {
		others[i] = fmt.Sprintf("http://park.example.edu/d%d", i)
	}
	for _, u := range append([]string{parked}, others...) {
		if _, err := n.Request(u, 1024); err != nil {
			t.Fatalf("warm %s: %v", u, err)
		}
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var unparkOnce sync.Once
	unpark := func() { unparkOnce.Do(func() { close(release) }) }
	defer unpark() // before Close, which takes every shard lock
	store.SetEventSink(func(ev cache.Event) {
		if ev.Kind == cache.EventHit && ev.Doc.URL == parked {
			close(entered)
			<-release
		}
	})

	localHit := func(url string) error {
		res, err := n.Request(url, 1024)
		if err == nil && res.Outcome != metrics.LocalHit {
			err = fmt.Errorf("%s: outcome %v, want a local hit", url, res.Outcome)
		}
		return err
	}
	done := make(chan error, 1+len(others)) // one send per request below
	go func() { done <- localHit(parked) }()
	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("the parked request returned without a store hit: %v", err)
	}
	for _, u := range others {
		go func(u string) { done <- localHit(u) }(u)
	}
	// The deadline only turns a hang into a failure; nothing is timed.
	deadline := time.After(10 * time.Second)
	await := func(want int, during string) {
		for got := 0; got < want; got++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-deadline:
				t.Fatalf("%d of %d requests completed %s", got, want, during)
			}
		}
	}
	await(len(others)/2, "while one request sat inside a shard lock: requests serialise on a shared lock")
	unpark()
	await(1+len(others)-len(others)/2, "after the parked request was released")
}
