package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

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

// TestSortByTimeSortedInput: input already in order, ties included, comes
// back unchanged, and one record out of place at the very end still sends
// the trace through the stable sort.
func TestSortByTimeSortedInput(t *testing.T) {
	records := make([]Record, 1000)
	for i := range records {
		records[i] = Record{Time: time.Unix(int64(i/3), 0).UTC(), URL: docURL(i)}
	}
	want := append([]Record(nil), records...)
	SortByTime(records)
	if !reflect.DeepEqual(records, want) {
		t.Fatal("SortByTime reordered an already sorted trace")
	}

	records[len(records)-1].Time = time.Unix(100, 0).UTC()
	want = append(want[:0], records...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
	SortByTime(records)
	if !reflect.DeepEqual(records, want) {
		t.Fatal("SortByTime order differs from the sort.SliceStable reference on a trace unsorted only at its end")
	}
}

// TestGenerateKeepsGenerationOrderOnTies holds Generate's merge of the
// session runs to a stable sort of the same events in generation order, on
// a configuration where about one record in five shares its timestamp with
// the one before it: every session starts at Start and its gaps round to a
// few nanoseconds.
func TestGenerateKeepsGenerationOrderOnTies(t *testing.T) {
	cfg := BULike().Scaled(0.02)
	cfg.Span = time.Nanosecond
	cfg.SessionLength = 50 * time.Nanosecond
	cfg.CohortFraction = 0
	cfg.DiurnalStrength = 0
	cfg.WeekendFactor = 1
	got, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	g, err := draw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Record, len(g.events))
	for i, e := range g.events {
		g.record(&want[i], e)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].Time.Equal(want[i-1].Time) {
			ties++
		}
	}
	if ties < len(want)/10 {
		t.Fatalf("only %d of %d records tie with their predecessor; the test needs a tie-heavy trace", ties, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Generate differs from the stable reference on a trace with %d ties", ties)
	}
}

// TestGenerateAllocBudget: the generator allocates per session and per
// distinct document, not per record, and its bytes are the records, one
// 16-byte event per record and the catalogue (measured at about 106 bytes
// per document: size, URL, Zipf table). A wider event, or a second copy of
// the records, breaks the byte budget.
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

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Requests)
	budget := float64(unsafe.Sizeof(Record{})) + 16 + 128*float64(cfg.UniqueDocs)/float64(cfg.Requests)
	if perRecord > budget {
		t.Errorf("Generate: %.1f bytes per record, want <= %.1f (the record, a 16-byte event, 128 bytes per document)", perRecord, budget)
	}
}
