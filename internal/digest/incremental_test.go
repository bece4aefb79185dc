package digest

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCountingMatchesRebuiltFilter is the tentpole property test: any
// interleaving of adds and removes (removes only of present keys) leaves
// the counting filter's bit projection identical to a plain Filter
// rebuilt from scratch over the surviving key set — the incremental path
// never drifts from what a full rebuild would advertise.
func TestCountingMatchesRebuiltFilter(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, err := NewCounting(256, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := NewIncremental(256, 0.01, 64)
			if err != nil {
				t.Fatal(err)
			}
			inc.Seed(nil)

			present := make(map[string]bool)
			var order []string // insertion-ordered members for random eviction
			for op := 0; op < 2000; op++ {
				if len(order) == 0 || rng.Intn(100) < 55 {
					url := fmt.Sprintf("http://site-%d/doc/%d", rng.Intn(40), rng.Intn(500))
					if present[url] {
						continue // the cache never double-inserts the same URL
					}
					present[url] = true
					order = append(order, url)
					c.Add(url, nil)
					inc.Add(url)
				} else {
					i := rng.Intn(len(order))
					url := order[i]
					order[i] = order[len(order)-1]
					order = order[:len(order)-1]
					delete(present, url)
					c.Remove(url, nil)
					inc.Remove(url)
				}
			}

			if c.Pinned() != 0 || c.Underflows() != 0 {
				t.Fatalf("degradation under valid discipline: pinned=%d underflows=%d", c.Pinned(), c.Underflows())
			}
			rebuilt, err := NewFilter(256, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			for url := range present {
				rebuilt.Add(url)
			}
			if got := c.Project(); !got.Equal(rebuilt) {
				t.Fatalf("counting projection diverged from rebuilt filter (%d members)", len(present))
			}
			if !inc.Filter().Equal(rebuilt) {
				t.Fatalf("incremental live projection diverged from rebuilt filter")
			}
			// And the query surface agrees: every member is advertised.
			for url := range present {
				if !inc.MayContain(url) {
					t.Fatalf("false negative for member %q", url)
				}
			}
			if inc.Generation() == 0 {
				t.Fatal("generation not advanced")
			}
		})
	}
}

// TestDeltaSyncKeepsReplicaExact drives random mutations and syncs a
// replica filter at random intervals via Delta (falling back to full
// when the window is exceeded); after every sync the replica must be
// bit-identical to the server's projection.
func TestDeltaSyncKeepsReplicaExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + seed))
			const window = 32
			inc, err := NewIncremental(128, 0.02, window)
			if err != nil {
				t.Fatal(err)
			}
			inc.Seed([]string{"http://seed/1", "http://seed/2"})

			var replica *Filter
			var replicaGen uint64
			var fulls, deltas int
			sync := func() {
				if replica != nil {
					if d, ok := inc.Delta(replicaGen); ok {
						// Round-trip through the wire format.
						raw, err := d.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						s, err := DecodeSync(raw)
						if err != nil {
							t.Fatal(err)
						}
						if s.Delta == nil || s.Delta.From != replicaGen {
							t.Fatalf("decoded delta mismatch: %+v", s)
						}
						if err := replica.ApplyDelta(s.Delta); err != nil {
							t.Fatal(err)
						}
						replicaGen = s.Delta.To
						deltas++
						return
					}
				}
				raw, err := EncodeFull(inc.Filter(), inc.Generation())
				if err != nil {
					t.Fatal(err)
				}
				s, err := DecodeSync(raw)
				if err != nil {
					t.Fatal(err)
				}
				if s.Full == nil {
					t.Fatalf("expected full sync, got %+v", s)
				}
				replica, replicaGen = s.Full, s.Gen
				fulls++
			}
			sync()

			present := map[string]bool{"http://seed/1": true, "http://seed/2": true}
			var order []string
			for url := range present {
				order = append(order, url)
			}
			for round := 0; round < 200; round++ {
				burst := rng.Intn(window * 2) // sometimes past the log window
				for i := 0; i < burst; i++ {
					if len(order) == 0 || rng.Intn(100) < 60 {
						url := fmt.Sprintf("http://h%d/p%d", rng.Intn(30), rng.Intn(300))
						if present[url] {
							continue
						}
						present[url] = true
						order = append(order, url)
						inc.Add(url)
					} else {
						j := rng.Intn(len(order))
						url := order[j]
						order[j] = order[len(order)-1]
						order = order[:len(order)-1]
						delete(present, url)
						inc.Remove(url)
					}
				}
				sync()
				if !replica.Equal(inc.Filter()) {
					t.Fatalf("round %d: replica diverged from server projection", round)
				}
				if replicaGen != inc.Generation() {
					t.Fatalf("round %d: replica gen %d != server gen %d", round, replicaGen, inc.Generation())
				}
			}
			if deltas == 0 || fulls == 0 {
				t.Fatalf("test did not exercise both paths: %d deltas, %d fulls", deltas, fulls)
			}
		})
	}
}

func TestDeltaWindowFallsBackToFull(t *testing.T) {
	inc, err := NewIncremental(64, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	inc.Seed(nil)
	base := inc.Generation()
	for i := 0; i < 10; i++ {
		inc.Add(fmt.Sprintf("http://x/%d", i))
	}
	if _, ok := inc.Delta(base); ok {
		t.Fatal("delta served past the log window")
	}
	if d, ok := inc.Delta(inc.Generation() - 4); !ok || d.To != inc.Generation() {
		t.Fatalf("delta at window edge refused: ok=%v d=%+v", ok, d)
	}
	if d, ok := inc.Delta(inc.Generation()); !ok || len(d.Set)+len(d.Clear) != 0 {
		t.Fatalf("up-to-date replica should get an empty delta, got ok=%v %+v", ok, d)
	}
	if _, ok := inc.Delta(0); ok {
		t.Fatal("generation 0 (no replica) must force a full transfer")
	}
	if _, ok := inc.Delta(inc.Generation() + 1); ok {
		t.Fatal("a replica ahead of the server must force a full transfer")
	}
}

// TestDeltaSyncWireBudget is the sync cost budget: a cache holding 8192
// documents churns 16 of them (one admit + one evict each, constant
// occupancy) between a peer's refreshes, and over 2048 refreshes — two
// laps of a URL ring twice the resident set — every refresh must ride the
// change log, the deltas together must cost under 10% of the full-filter
// transfers they replace, and the counters must never saturate into the
// rebuild escape hatch. Byte counts, not timings: the result is the same
// on every host.
func TestDeltaSyncWireBudget(t *testing.T) {
	const resident, churn, refreshes = 8192, 16, 2048
	ring := make([]string, 2*resident)
	for i := range ring {
		ring[i] = fmt.Sprintf("http://digest.example.edu/doc%d", i)
	}
	inc, err := NewIncremental(resident, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	inc.Seed(ring[:resident])
	full, err := EncodeFull(inc.Filter(), inc.Generation())
	if err != nil {
		t.Fatal(err)
	}
	var deltaBytes int
	for r := 0; r < refreshes; r++ {
		since := inc.Generation()
		for c := 0; c < churn; c++ {
			step := r*churn + c
			inc.Add(ring[(step+resident)%len(ring)])
			inc.Remove(ring[step%len(ring)])
		}
		d, ok := inc.Delta(since)
		if !ok {
			t.Fatalf("refresh %d: %d mutations fell outside the %d-generation window", r, 2*churn, inc.Window())
		}
		wire, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		deltaBytes += len(wire)
	}
	if inc.NeedsRebuild() {
		t.Fatalf("steady-state churn asked for the rebuild escape hatch (pinned=%d)", inc.Pinned())
	}
	if budget := refreshes * len(full) / 10; deltaBytes >= budget {
		t.Fatalf("%d refreshes cost %d delta bytes, budget < %d (10%% of %d-byte full transfers)",
			refreshes, deltaBytes, budget, len(full))
	}
	t.Logf("delta %d B/refresh, full %d B: ratio %.3f", deltaBytes/refreshes, len(full),
		float64(deltaBytes)/float64(refreshes*len(full)))
}

func TestRebuildEscapeHatch(t *testing.T) {
	inc, err := NewIncremental(64, 0.01, 8)
	if err != nil {
		t.Fatal(err)
	}
	inc.Seed([]string{"http://a/", "http://b/"})
	// An underflow (remove of a key never added) must demand a rebuild.
	inc.Remove("http://never-added/")
	if !inc.NeedsRebuild() {
		t.Fatal("underflow did not trigger the escape hatch")
	}
	genBefore := inc.Generation()
	inc.Rebuild([]string{"http://a/", "http://b/"})
	if inc.NeedsRebuild() {
		t.Fatal("rebuild did not clear the degradation")
	}
	if inc.Generation() <= genBefore {
		t.Fatal("rebuild must advance the generation so replicas full-resync")
	}
	// The log was reset: any pre-rebuild replica takes a full transfer.
	if _, ok := inc.Delta(genBefore); ok {
		t.Fatal("delta served across a rebuild")
	}
	want, err := NewFilter(64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want.Add("http://a/")
	want.Add("http://b/")
	if !inc.Filter().Equal(want) {
		t.Fatal("rebuilt projection wrong")
	}
}

func TestCountingSaturationPinsCounters(t *testing.T) {
	c, err := NewCounting(16, 0.5) // tiny filter: this geometry yields k=1
	if err != nil {
		t.Fatal(err)
	}
	if c.Hashes() != 1 {
		t.Fatalf("expected k=1 for this geometry, got %d", c.Hashes())
	}
	// Hammer one key far past the 4-bit ceiling: the counter pins at 15
	// and removals never clear the bit (no false negatives, ever).
	for i := 0; i < 40; i++ {
		c.Add("http://hot/", nil)
	}
	if c.Pinned() == 0 {
		t.Fatal("no counter pinned after 40 duplicate adds")
	}
	for i := 0; i < 40; i++ {
		c.Remove("http://hot/", nil)
	}
	if !c.MayContain("http://hot/") {
		t.Fatal("pinned counter was cleared — potential false negative")
	}
	if c.Underflows() != 0 {
		t.Fatalf("pinned-counter removes must not count as underflows, got %d", c.Underflows())
	}
}

func TestDecodeSyncRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("EAD"),
		[]byte("EADX\x01\x00\x00\x00"),
		[]byte("EADF\x02\x00\x00\x00"),
		[]byte("EADF\x01\x00\x00\x00\x00\x00\x00\x00"),                // no gen/filter
		[]byte("EADD\x01\x00\x00\x00\x00\x00\x00\x00"),                // truncated header
		append([]byte("EADD\x01\x00\x00\x00"), make([]byte, 32+4)...), // size mismatch (claims 0 flips, has 1)
		append([]byte("EADF\x01\x00\x00\x00"), make([]byte, 8+10)...), // bad embedded filter
		func() []byte { // reversed generations
			d := Delta{From: 5, To: 2}
			b, _ := d.MarshalBinary()
			return b
		}(),
		func() []byte { // unsorted positions
			d := Delta{From: 1, To: 2, Set: []uint32{7, 3}}
			b, _ := d.MarshalBinary()
			return b
		}(),
	}
	for i, raw := range cases {
		if _, err := DecodeSync(raw); err == nil {
			t.Errorf("case %d: DecodeSync accepted garbage", i)
		}
	}
}

func TestApplyDeltaBoundsChecked(t *testing.T) {
	f, err := NewFilter(16, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d := &Delta{From: 1, To: 2, Set: []uint32{uint32(f.Bits())}}
	if err := f.ApplyDelta(d); err == nil {
		t.Fatal("out-of-range delta position accepted")
	}
}
