package digest

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewFilterValidation(t *testing.T) {
	if _, err := NewFilter(0, 0.01); err == nil {
		t.Fatal("zero expected accepted")
	}
	if _, err := NewFilter(100, 0); err == nil {
		t.Fatal("zero fp rate accepted")
	}
	if _, err := NewFilter(100, 1); err == nil {
		t.Fatal("fp rate 1 accepted")
	}
}

// Zero fields take the 4KB-mean sizing and the 1% target; set fields pass
// through. The simulator's proxy and the live node both size from this.
func TestConfigDefaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int64
		want     int
	}{
		{"1MB at 4KB per document", 1 << 20, 256},
		{"floor of 16 below 64KB", 1024, 16},
		{"floor of 16 below one document", 100, 16},
	} {
		if got := ExpectedEntries(tc.capacity); got != tc.want {
			t.Errorf("%s: ExpectedEntries(%d) = %d, want %d", tc.name, tc.capacity, got, tc.want)
		}
	}
	if FPRate != 0.01 {
		t.Errorf("FPRate = %v, want the 1%% every filter is sized for", FPRate)
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f, err := NewFilter(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("http://x.example.edu/doc%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain(fmt.Sprintf("http://x.example.edu/doc%d", i)) {
			t.Fatalf("false negative for doc%d", i)
		}
	}
	if f.Len() != 1000 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestFilterFalsePositiveRateNearTarget(t *testing.T) {
	const n, target = 5000, 0.01
	f, err := NewFilter(n, target)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("in-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain(fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > target*3 {
		t.Fatalf("false-positive rate %.4f far above target %.4f", rate, target)
	}
	if est := f.EstimatedFPRate(); est > target*3 {
		t.Fatalf("estimated fp rate %.4f far above target", est)
	}
}

func TestFilterReset(t *testing.T) {
	f, err := NewFilter(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f.Add("a")
	f.Reset()
	if f.Len() != 0 || f.FillRatio() != 0 {
		t.Fatal("reset incomplete")
	}
	if f.MayContain("a") {
		t.Fatal("reset filter still matches")
	}
}

func TestFilterGeometry(t *testing.T) {
	f, err := NewFilter(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// ~9.6 bits/entry and ~7 hashes for 1% fp.
	if f.Bits() < 8000 || f.Bits() > 12000 {
		t.Fatalf("bits = %d, want ~9600", f.Bits())
	}
	if f.Hashes() < 5 || f.Hashes() > 9 {
		t.Fatalf("hashes = %d, want ~7", f.Hashes())
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(keys []string) bool {
		filter, err := NewFilter(len(keys)+1, 0.05)
		if err != nil {
			return false
		}
		for _, k := range keys {
			filter.Add(k)
		}
		for _, k := range keys {
			if !filter.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
