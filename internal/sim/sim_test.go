package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/trace"
)

var t0 = time.Date(1994, time.November, 15, 12, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func newGroup(t *testing.T, caches int, aggregate int64, scheme core.Scheme) *group.Group {
	t.Helper()
	g, err := group.New(group.Config{
		Caches:         caches,
		AggregateBytes: aggregate,
		Scheme:         scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func rec(sec int, client, url string, size int64) trace.Record {
	return trace.Record{UnixNano: at(sec).UnixNano(), Client: client, URL: url, Size: size}
}

func TestRunValidation(t *testing.T) {
	g := newGroup(t, 2, 1<<20, core.AdHoc{})
	if _, err := Run(nil, nil, Config{}); err == nil {
		t.Fatal("nil group accepted")
	}
	unsorted := []trace.Record{rec(10, "u", "a", 1), rec(5, "u", "b", 1)}
	if _, err := Run(g, unsorted, Config{}); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

func TestRunCountsOutcomes(t *testing.T) {
	g := newGroup(t, 1, 1<<20, core.AdHoc{})
	records := []trace.Record{
		rec(0, "u1", "http://a/", 100), // miss
		rec(1, "u1", "http://a/", 100), // local hit
		rec(2, "u1", "http://b/", 200), // miss
		rec(3, "u1", "http://a/", 100), // local hit
	}
	rep, err := Run(g, records, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Group.Requests != 4 || rep.Group.LocalHits != 2 || rep.Group.Misses != 2 {
		t.Fatalf("counters = %+v", rep.Group)
	}
	if rep.Group.BytesRequested != 500 || rep.Group.BytesLocal != 200 {
		t.Fatalf("bytes = %+v", rep.Group)
	}
	// Simulated latency: 2 misses + 2 local hits under the paper model.
	want := 2*metrics.PaperLatencies.Miss + 2*metrics.PaperLatencies.LocalHit
	if rep.Group.SimLatency != want {
		t.Fatalf("SimLatency = %v, want %v", rep.Group.SimLatency, want)
	}
	if diff := rep.EstimatedLatency - want/4; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("EstimatedLatency = %v, want ~%v", rep.EstimatedLatency, want/4)
	}
}

func TestRunRemoteHitAcrossCaches(t *testing.T) {
	g := newGroup(t, 2, 1<<21, core.AdHoc{})
	// Find two clients routed to different caches.
	var c0, c1 string
	leaves := g.Leaves()
	for i := 0; (c0 == "" || c1 == "") && i < 1000; i++ {
		client := fmt.Sprintf("user-%d", i)
		switch g.Route(client).ID() {
		case leaves[0].ID():
			if c0 == "" {
				c0 = client
			}
		case leaves[1].ID():
			if c1 == "" {
				c1 = client
			}
		}
	}
	if c0 == "" || c1 == "" {
		t.Fatal("could not find clients for both caches")
	}
	records := []trace.Record{
		rec(0, c0, "http://a/", 100), // miss at cache 0
		rec(1, c1, "http://a/", 100), // remote hit from cache 0
	}
	rep, err := Run(g, records, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Group.RemoteHits != 1 || rep.Group.Misses != 1 {
		t.Fatalf("counters = %+v", rep.Group)
	}
}

func TestRunZeroSizeSubstitution(t *testing.T) {
	g := newGroup(t, 1, 1<<20, core.AdHoc{})
	records := []trace.Record{rec(0, "u", "http://a/", 0)}
	rep, err := Run(g, records, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Group.BytesRequested != trace.DefaultDocSize {
		t.Fatalf("bytes = %d, want the 4KB substitution", rep.Group.BytesRequested)
	}
}

func TestRunDeterminism(t *testing.T) {
	gen := trace.BULike().Scaled(0.005)
	records, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)

	run := func() *Report {
		g := newGroup(t, 4, 256<<10, core.EA{})
		rep, err := Run(g, records, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs diverged")
	}
}

func TestRunConservation(t *testing.T) {
	gen := trace.BULike().Scaled(0.01)
	records, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)

	for _, schemeName := range []string{"adhoc", "ea", "never"} {
		scheme, _ := core.New(schemeName)
		g := newGroup(t, 4, 128<<10, scheme)
		rep, err := Run(g, records, Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := rep.Group
		if c.Requests != int64(len(records)) {
			t.Fatalf("%s: requests %d != %d", schemeName, c.Requests, len(records))
		}
		if c.LocalHits+c.RemoteHits+c.Misses != c.Requests {
			t.Fatalf("%s: outcome conservation violated", schemeName)
		}
		if c.BytesLocal+c.BytesRemote+c.BytesMissed != c.BytesRequested {
			t.Fatalf("%s: byte conservation violated", schemeName)
		}
		// Per-proxy counters sum to the group counters.
		var sum metrics.CountersSnapshot
		for _, pr := range rep.PerProxy {
			sum.Requests += pr.Counters.Requests
			sum.LocalHits += pr.Counters.LocalHits
			sum.RemoteHits += pr.Counters.RemoteHits
			sum.Misses += pr.Counters.Misses
		}
		if sum.Requests != c.Requests || sum.LocalHits != c.LocalHits ||
			sum.RemoteHits != c.RemoteHits || sum.Misses != c.Misses {
			t.Fatalf("%s: per-proxy counters do not sum to group", schemeName)
		}
		// No cache over capacity.
		for _, pr := range rep.PerProxy {
			if pr.ResidentBytes > g.Config().AggregateBytes {
				t.Fatalf("%s: cache over aggregate", schemeName)
			}
		}
	}
}

// TestEANeverWorseThanAdHoc checks the paper's headline claim on the
// default workload at several cache sizes: the EA scheme's cumulative group
// hit rate is at least the ad-hoc scheme's (within a small tolerance for
// the heuristic cases the paper's §3.4 argument glosses over).
func TestEANeverWorseThanAdHoc(t *testing.T) {
	gen := trace.BULike().Scaled(0.02)
	records, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)
	trace.SortByTime(records)

	for _, aggregate := range []int64{64 << 10, 512 << 10, 4 << 20} {
		adhocGroup := newGroup(t, 4, aggregate, core.AdHoc{})
		adhoc, err := Run(adhocGroup, records, Config{})
		if err != nil {
			t.Fatal(err)
		}
		eaGroup := newGroup(t, 4, aggregate, core.EA{})
		ea, err := Run(eaGroup, records, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ea.Group.HitRate() < adhoc.Group.HitRate()-0.01 {
			t.Errorf("aggregate %s: EA hit rate %.4f clearly below ad-hoc %.4f",
				FormatBytes(aggregate), ea.Group.HitRate(), adhoc.Group.HitRate())
		}
		// And the motivation holds: EA never replicates more.
		if ea.Replication.MeanCopies() > adhoc.Replication.MeanCopies()+1e-9 {
			t.Errorf("aggregate %s: EA replicates more (%.3f > %.3f)",
				FormatBytes(aggregate), ea.Replication.MeanCopies(), adhoc.Replication.MeanCopies())
		}
	}
}

func TestRunHierarchical(t *testing.T) {
	gen := trace.BULike().Scaled(0.005)
	records, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)

	g, err := group.New(group.Config{
		Caches:         3,
		AggregateBytes: 1 << 20,
		Scheme:         core.EA{},
		Architecture:   group.Hierarchical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, records, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Architecture != group.Hierarchical {
		t.Fatalf("architecture = %v", rep.Architecture)
	}
	if len(rep.PerProxy) != 4 {
		t.Fatalf("per-proxy entries = %d, want 4 (3 leaves + parent)", len(rep.PerProxy))
	}
	// The parent serves no clients directly.
	parent := rep.PerProxy[3]
	if parent.ID != "parent-0" || parent.Counters.Requests != 0 {
		t.Fatalf("parent report = %+v", parent)
	}
	if rep.Group.Requests != int64(len(records)) {
		t.Fatal("request conservation")
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{100 << 10, "100KB"},
		{1 << 20, "1MB"},
		{10 << 20, "10MB"},
		{1 << 30, "1GB"},
		{12345, "12345B"},
		{1536, "1536B"}, // 1.5KB is not a whole unit
	}
	for _, tt := range tests {
		if got := FormatBytes(tt.n); got != tt.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestProxyReportExpirationAges(t *testing.T) {
	// A 2-cache run small enough to force evictions must report finite
	// expiration ages and eviction counts.
	gen := trace.BULike().Scaled(0.005)
	records, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)

	g := newGroup(t, 2, 32<<10, core.EA{})
	rep, err := Run(g, records, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.PerProxy {
		if pr.Evictions == 0 {
			t.Fatalf("%s: no evictions at 16KB per cache", pr.ID)
		}
		if pr.ExpirationAge == cache.NoContention || pr.ExpirationAge < 0 {
			t.Fatalf("%s: expiration age = %v", pr.ID, pr.ExpirationAge)
		}
	}
	if rep.AvgCacheExpirationAge <= 0 {
		t.Fatalf("group expiration age = %v", rep.AvgCacheExpirationAge)
	}
}

func TestRunWarmup(t *testing.T) {
	g := newGroup(t, 1, 1<<20, core.AdHoc{})
	records := []trace.Record{
		rec(0, "u", "http://a/", 100), // warmup: miss, uncounted
		rec(1, "u", "http://a/", 100), // counted: local hit
		rec(2, "u", "http://b/", 100), // counted: miss
	}
	rep, err := Run(g, records, Config{Warmup: 0.34})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Group.Requests != 2 {
		t.Fatalf("requests = %d, want 2 (one warmup record)", rep.Group.Requests)
	}
	if rep.Group.LocalHits != 1 || rep.Group.Misses != 1 {
		t.Fatalf("counters = %+v", rep.Group)
	}
	// Warmup populated the cache even though it was not counted.
	if !g.Leaves()[0].Store().Contains("http://a/") {
		t.Fatal("warmup record not applied to cache state")
	}
}

func TestRunWarmupValidation(t *testing.T) {
	g := newGroup(t, 1, 1<<20, core.AdHoc{})
	for _, w := range []float64{-0.1, 1.0, 1.5} {
		if _, err := Run(g, nil, Config{Warmup: w}); err == nil {
			t.Fatalf("warmup %v accepted", w)
		}
	}
}

func TestRunWarmedEASteadyState(t *testing.T) {
	// With half the trace as warmup, the schemes' steady-state ordering
	// must match the whole-run ordering on the default workload.
	gen := trace.BULike().Scaled(0.01)
	records, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)

	hit := func(scheme core.Scheme) float64 {
		g := newGroup(t, 4, 256<<10, scheme)
		rep, err := Run(g, records, Config{Warmup: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Group.Requests != int64(len(records)-len(records)/2) {
			t.Fatalf("warmed request count = %d", rep.Group.Requests)
		}
		return rep.Group.HitRate()
	}
	if ea, adhoc := hit(core.EA{}), hit(core.AdHoc{}); ea < adhoc-0.01 {
		t.Fatalf("steady-state EA %.4f clearly below adhoc %.4f", ea, adhoc)
	}
}
