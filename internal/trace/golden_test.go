package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"testing"
	"time"

	"eacache/internal/race"
)

// TestGenerateGolden pins the generator's output byte for byte: the
// SHA-256 of the canonical text form of the scaled BU-like trace, captured
// before client names and URLs were interned. A change that formats one
// name differently, draws one more random number or reorders one record
// changes the digest.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "7a4324084419b7643c50b84cd6eb8fb29c318f55999cb21e68ec94cf84f5e980"},
		{2, "953b5d4b91a998aaa5f652701ac4ed91a5dcf2105abd1b75a8edc5cfdcec1e1d"},
	} {
		cfg := BULike().Scaled(0.05)
		cfg.Seed = tc.seed
		records, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := Write(h, records); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("seed %d: canonical trace digest %s, want %s", tc.seed, got, tc.want)
		}
	}
}

// TestSortByTimeMatchesStableReference holds SortByTime to the order
// sort.SliceStable gives on a trace where most timestamps collide, so ties
// keep log order whatever the implementation.
func TestSortByTimeMatchesStableReference(t *testing.T) {
	rng := newTestRNG()
	records := make([]Record, 5000)
	for i := range records {
		records[i] = Record{
			Time: time.Unix(int64(rng.Intn(40)), int64(rng.Intn(3))).UTC(),
			URL:  docURL(i),
		}
	}
	want := append([]Record(nil), records...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
	SortByTime(records)
	if !reflect.DeepEqual(records, want) {
		t.Fatal("SortByTime order differs from the sort.SliceStable reference")
	}
}

// TestGenerateAllocBudget: the generator allocates per session and per
// distinct document, not per record.
func TestGenerateAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := BULike().Scaled(0.05)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := allocs / float64(cfg.Requests); perRecord > 0.2 {
		t.Errorf("Generate: %.3f allocs per record (%.0f over %d records), want <= 0.2", perRecord, allocs, cfg.Requests)
	}
}
