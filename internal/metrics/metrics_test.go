package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{LocalHit, "local-hit"},
		{RemoteHit, "remote-hit"},
		{Miss, "miss"},
		{Outcome(99), "outcome(99)"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.o, got, tt.want)
		}
	}
}

func TestCountersRecord(t *testing.T) {
	var c Counters
	c.Record(LocalHit, 100)
	c.Record(RemoteHit, 200)
	c.Record(Miss, 700)
	c.Record(LocalHit, 100)

	s := c.Snapshot()
	if s.Requests != 4 {
		t.Fatalf("Requests = %d", s.Requests)
	}
	if s.LocalHits != 2 || s.RemoteHits != 1 || s.Misses != 1 {
		t.Fatalf("split = %d/%d/%d", s.LocalHits, s.RemoteHits, s.Misses)
	}
	if s.BytesRequested != 1100 || s.BytesLocal != 200 || s.BytesRemote != 200 || s.BytesMissed != 700 {
		t.Fatalf("bytes = %d/%d/%d/%d", s.BytesRequested, s.BytesLocal, s.BytesRemote, s.BytesMissed)
	}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v", got)
	}
	if got := s.ByteHitRate(); math.Abs(got-400.0/1100) > 1e-12 {
		t.Fatalf("ByteHitRate = %v", got)
	}
	if got := s.LocalHitRate(); got != 0.5 {
		t.Fatalf("LocalHitRate = %v", got)
	}
	if got := s.RemoteHitRate(); got != 0.25 {
		t.Fatalf("RemoteHitRate = %v", got)
	}
	if got := s.MissRate(); got != 0.25 {
		t.Fatalf("MissRate = %v", got)
	}
}

func TestCountersZeroSafe(t *testing.T) {
	var c Counters
	if s := c.Snapshot(); s.HitRate() != 0 || s.ByteHitRate() != 0 || s.MissRate() != 0 {
		t.Fatal("zero counters must not divide by zero")
	}
}

// TestCountersConcurrentRecordScrape is the regression test for the latent
// data race the telemetry layer surfaced: a /metrics scrape (Snapshot) must
// be able to run concurrently with Record on the request path. Run under
// -race.
func TestCountersConcurrentRecordScrape(t *testing.T) {
	var c Counters
	const (
		writers = 4
		perW    = 10000
	)
	var writersWG, scrapersWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				c.Record(Outcome(i%3+1), int64(i%1024))
				c.AddSimLatency(time.Millisecond)
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		scrapersWG.Add(1)
		go func() {
			defer scrapersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Mid-Record snapshots may lag attribution (the total
				// is incremented before the outcome counter), but the
				// split must never exceed the total.
				snap := c.Snapshot()
				if snap.LocalHits+snap.RemoteHits+snap.Misses > snap.Requests {
					t.Error("snapshot outcome split exceeds requests")
					return
				}
				_ = snap.HitRate()
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	scrapersWG.Wait()
	if got := c.Snapshot().Requests; got != writers*perW {
		t.Fatalf("requests = %d, want %d", got, writers*perW)
	}
}

func TestLatencyModelOf(t *testing.T) {
	m := PaperLatencies
	if m.Of(LocalHit) != 146*time.Millisecond ||
		m.Of(RemoteHit) != 342*time.Millisecond ||
		m.Of(Miss) != 2784*time.Millisecond {
		t.Fatalf("paper latencies wrong: %+v", m)
	}
}

func TestEstimatedAverageLatencyEq6(t *testing.T) {
	// Paper example shape: equal thirds of local/remote/miss gives the
	// plain average of the three latencies.
	var c Counters
	c.Record(LocalHit, 1)
	c.Record(RemoteHit, 1)
	c.Record(Miss, 1)
	want := (146 + 342 + 2784) / 3
	got := PaperLatencies.EstimatedAverageLatency(c.Snapshot()).Milliseconds()
	if got != int64(want) {
		t.Fatalf("eq6 = %dms, want %dms", got, want)
	}

	var empty Counters
	if PaperLatencies.EstimatedAverageLatency(empty.Snapshot()) != 0 {
		t.Fatal("empty counters should estimate 0")
	}
}

func TestEstimatedLatencyAllMisses(t *testing.T) {
	var c Counters
	for i := 0; i < 10; i++ {
		c.Record(Miss, 1)
	}
	if got := PaperLatencies.EstimatedAverageLatency(c.Snapshot()); got != 2784*time.Millisecond {
		t.Fatalf("all-miss latency = %v", got)
	}
}

// TestQuickConservation checks the accounting identity the simulator
// relies on: local + remote + miss = requests and the byte split sums to
// bytes requested, for arbitrary outcome sequences.
func TestQuickConservation(t *testing.T) {
	f := func(kinds []uint8) bool {
		var c Counters
		for _, k := range kinds {
			size := int64(k)%512 + 1
			switch k % 3 {
			case 0:
				c.Record(LocalHit, size)
			case 1:
				c.Record(RemoteHit, size)
			default:
				c.Record(Miss, size)
			}
		}
		s := c.Snapshot()
		if s.LocalHits+s.RemoteHits+s.Misses != s.Requests {
			return false
		}
		if s.BytesLocal+s.BytesRemote+s.BytesMissed != s.BytesRequested {
			return false
		}
		sum := s.HitRate() + s.MissRate()
		return s.Requests == 0 || math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEq6Bounds checks that the estimated latency is always between
// the fastest and slowest service latencies.
func TestQuickEq6Bounds(t *testing.T) {
	f := func(l, r, m uint16) bool {
		var c Counters
		for i := 0; i < int(l%50); i++ {
			c.Record(LocalHit, 1)
		}
		for i := 0; i < int(r%50); i++ {
			c.Record(RemoteHit, 1)
		}
		for i := 0; i < int(m%50); i++ {
			c.Record(Miss, 1)
		}
		s := c.Snapshot()
		if s.Requests == 0 {
			return true
		}
		got := PaperLatencies.EstimatedAverageLatency(s)
		return got >= PaperLatencies.LocalHit-time.Millisecond &&
			got <= PaperLatencies.Miss+time.Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
