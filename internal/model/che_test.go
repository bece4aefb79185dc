package model

import (
	"fmt"
	"math"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/dist"
)

func TestCheLRUValidation(t *testing.T) {
	if _, err := CheLRU(nil, 10); err == nil {
		t.Fatal("empty distribution accepted")
	}
	if _, err := CheLRU([]float64{1}, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := CheLRU([]float64{-1, 1}, 1); err == nil {
		t.Fatal("negative popularity accepted")
	}
	if _, err := CheLRU([]float64{0, 0}, 1); err == nil {
		t.Fatal("zero mass accepted")
	}
	if _, err := CheLRU([]float64{math.NaN()}, 1); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestCheLRUEverythingFits(t *testing.T) {
	probs, err := ZipfPopularities(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := CheLRU(probs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 1 {
		t.Fatalf("hit = %v, want 1 when everything fits", hit)
	}
}

func TestCheLRUMonotoneInCapacity(t *testing.T) {
	probs, err := ZipfPopularities(2000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, capacity := range []int{10, 50, 200, 1000, 1900} {
		hit, err := CheLRU(probs, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if hit <= prev {
			t.Fatalf("hit rate not increasing: %v at capacity %d after %v", hit, capacity, prev)
		}
		if hit <= 0 || hit > 1 {
			t.Fatalf("hit = %v out of (0,1]", hit)
		}
		prev = hit
	}
}

func TestCheLRUUniformMatchesClosedForm(t *testing.T) {
	// Under uniform popularity the IRM LRU hit rate approaches
	// capacity/n for large n (any resident set is equally likely).
	const n, capacity = 5000, 500
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 1
	}
	hit, err := CheLRU(probs, capacity)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(capacity) / n
	if math.Abs(hit-want) > 0.01 {
		t.Fatalf("uniform hit = %v, want ~%v", hit, want)
	}
}

// TestCheLRUMatchesSimulation cross-validates the analytic model against
// the event-driven cache on an IRM Zipf stream: the two estimates must
// agree within a couple of points.
func TestCheLRUMatchesSimulation(t *testing.T) {
	const (
		docs     = 3000
		capacity = 300
		requests = 150000
		alpha    = 0.8
	)
	probs, err := ZipfPopularities(docs, alpha)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := CheLRU(probs, capacity)
	if err != nil {
		t.Fatal(err)
	}

	zipf, err := dist.NewZipf(docs, alpha)
	if err != nil {
		t.Fatal(err)
	}
	// Unit-size documents so capacity is exactly a document count.
	store, err := cache.New(cache.Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(7)
	now := time.Unix(784900000, 0)
	var hits int
	for i := 0; i < requests; i++ {
		url := "doc-" + itoa(zipf.Rank(rng))
		if _, ok := store.Get(url, now); ok {
			hits++
		} else if _, err := store.Put(cache.Document{URL: url, Size: 1}, now); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	simulated := float64(hits) / requests
	if math.Abs(simulated-analytic) > 0.02 {
		t.Fatalf("simulated %.4f vs analytic %.4f differ by more than 2pp", simulated, analytic)
	}
}

// TestExpirationAgeIsCharacteristicTime pins eq. 5's contention signal to
// Che's characteristic time. Under IRM an LRU cache evicts each document
// about Tc after its last reference, so the expiration age of one LRU
// cache.Store over a 512-eviction window, averaged over a long run, must
// match characteristicTime within 1 %. One request a second makes
// seconds and requests the same unit. -short runs the two cheapest rows.
func TestExpirationAgeIsCharacteristicTime(t *testing.T) {
	const requests = 200000
	for _, row := range []struct {
		docs, capacity int
		alpha          float64
		short          bool
	}{
		{10000, 100, 0.8, true},
		{10000, 1000, 0.8, true},
		{10000, 1000, 1.0, false},
		{50000, 5000, 0.75, false},
	} {
		t.Run(fmt.Sprintf("docs=%d/capacity=%d/alpha=%.2f", row.docs, row.capacity, row.alpha), func(t *testing.T) {
			if testing.Short() && !row.short {
				t.Skip("long row")
			}
			probs, err := ZipfPopularities(row.docs, row.alpha)
			if err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, p := range probs {
				total += p
			}
			for i := range probs {
				probs[i] /= total
			}
			tc, err := characteristicTime(probs, float64(row.capacity))
			if err != nil {
				t.Fatal(err)
			}

			zipf, err := dist.NewZipf(row.docs, row.alpha)
			if err != nil {
				t.Fatal(err)
			}
			store, err := cache.New(cache.Config{Capacity: int64(row.capacity), ExpirationWindow: cache.DefaultExpirationWindow})
			if err != nil {
				t.Fatal(err)
			}
			rng := dist.NewRNG(11)
			now := time.Unix(784900000, 0)
			warm := 10 * int(tc)
			var sum float64
			var samples int
			for i := 0; i < warm+requests; i++ {
				url := "doc-" + itoa(zipf.Rank(rng))
				if _, ok := store.Get(url, now); !ok {
					if _, err := store.Put(cache.Document{URL: url, Size: 1}, now); err != nil {
						t.Fatal(err)
					}
				}
				if i >= warm && i%100 == 0 {
					sum += store.ExpirationAge(now).Seconds()
					samples++
				}
				now = now.Add(time.Second)
			}
			mean := sum / float64(samples)
			t.Logf("Tc %.1f s, windowed expiration age %.1f s", tc, mean)
			if math.Abs(mean-tc) > 0.01*tc {
				t.Fatalf("windowed expiration age %.1f s is more than 1 %% from Tc %.1f s", mean, tc)
			}
		})
	}
}

func TestZipfPopularities(t *testing.T) {
	if _, err := ZipfPopularities(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ZipfPopularities(10, -1); err == nil {
		t.Fatal("alpha<0 accepted")
	}
	probs, err := ZipfPopularities(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 1.0 / 3, 0.25}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Fatalf("probs[%d] = %v, want %v", i, probs[i], want[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
