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
// changes the digest. The digests hold whatever the number of cores.
func TestGenerateGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1, 4} {
		runtime.GOMAXPROCS(procs)
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
				t.Errorf("GOMAXPROCS %d, seed %d: canonical trace digest %s, want %s", procs, tc.seed, got, tc.want)
			}
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
			UnixNano: int64(rng.Intn(40))*1e9 + int64(rng.Intn(3)),
			URL:      docURL(i),
		}
	}
	want := append([]Record(nil), records...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].UnixNano < want[j].UnixNano })
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
		records[i] = Record{UnixNano: int64(i/3) * 1e9, URL: docURL(i)}
	}
	want := append([]Record(nil), records...)
	SortByTime(records)
	if !reflect.DeepEqual(records, want) {
		t.Fatal("SortByTime reordered an already sorted trace")
	}

	records[len(records)-1].UnixNano = 100e9
	want = append(want[:0], records...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].UnixNano < want[j].UnixNano })
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
	sort.SliceStable(want, func(i, j int) bool { return want[i].UnixNano < want[j].UnixNano })
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].UnixNano == want[i-1].UnixNano {
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

// TestMergePiecesMatchSequential: the session runs merged in 1 to 8
// concurrent pieces give the records of the one-piece merge, on the
// tie-heavy trace of TestGenerateKeepsGenerationOrderOnTies, where many
// sampled pivots share a timestamp with the events they cut, and on a
// trace large enough that Generate cuts it on its own.
func TestMergePiecesMatchSequential(t *testing.T) {
	ties := BULike().Scaled(0.02)
	ties.Span = time.Nanosecond
	ties.SessionLength = 50 * time.Nanosecond
	ties.CohortFraction = 0
	ties.DiurnalStrength = 0
	ties.WeekendFactor = 1
	for name, cfg := range map[string]GenConfig{"ties": ties, "bu-0.1": BULike().Scaled(0.1)} {
		g, err := draw(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Record, cfg.Requests)
		g.merge(want, 1)
		for pieces := 1; pieces <= 8; pieces++ {
			got := make([]Record, cfg.Requests)
			g.merge(got, pieces)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a merge in %d pieces differs from the one-piece merge", name, pieces)
			}
		}
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
