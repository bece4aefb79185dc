package group

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/obs"
	"eacache/internal/proxy"
	"eacache/internal/resolve"
)

var t0 = time.Date(1994, time.November, 15, 12, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func TestNewValidation(t *testing.T) {
	base := Config{Caches: 4, AggregateBytes: 1 << 20, Scheme: core.EA{}}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mod  func(*Config)
	}{
		{"no caches", func(c *Config) { c.Caches = 0 }},
		{"no bytes", func(c *Config) { c.AggregateBytes = 0 }},
		{"nil scheme", func(c *Config) { c.Scheme = nil }},
		{"space smaller than cache count", func(c *Config) { c.AggregateBytes = 3; c.Caches = 4 }},
		{"cumulative ages with a horizon", func(c *Config) { c.ExpirationWindow = CumulativeAges; c.ExpirationHorizon = time.Hour }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mod(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestDistributedWiring(t *testing.T) {
	g, err := New(Config{Caches: 4, AggregateBytes: 4 << 20, Scheme: core.EA{}})
	if err != nil {
		t.Fatal(err)
	}
	leaves := g.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	if g.Parent() != nil {
		t.Fatal("distributed group has a parent")
	}
	if len(g.All()) != 4 {
		t.Fatalf("All = %d", len(g.All()))
	}
	// Equal split: X/N each.
	for _, p := range leaves {
		if p.Store().Capacity() != 1<<20 {
			t.Fatalf("%s capacity = %d, want %d", p.ID(), p.Store().Capacity(), 1<<20)
		}
		if p.Parent() != nil {
			t.Fatalf("%s has a parent", p.ID())
		}
	}
}

func TestHierarchicalWiring(t *testing.T) {
	g, err := New(Config{
		Caches:         4,
		AggregateBytes: 5 << 20,
		Scheme:         core.EA{},
		Architecture:   Hierarchical,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Parent() == nil {
		t.Fatal("hierarchical group missing parent")
	}
	if len(g.All()) != 5 {
		t.Fatalf("All = %d, want 5 (4 leaves + parent)", len(g.All()))
	}
	// The parent shares the aggregate equally: X/(N+1) each.
	for _, p := range g.All() {
		if p.Store().Capacity() != 1<<20 {
			t.Fatalf("%s capacity = %d, want %d", p.ID(), p.Store().Capacity(), 1<<20)
		}
	}
	for _, leaf := range g.Leaves() {
		if leaf.Parent() != g.Parent() {
			t.Fatalf("%s not wired to parent", leaf.ID())
		}
	}
}

func TestRouteStableAndCovering(t *testing.T) {
	g, err := New(Config{Caches: 4, AggregateBytes: 4 << 20, Scheme: core.AdHoc{}})
	if err != nil {
		t.Fatal(err)
	}
	// Stability: a client always lands on the same cache.
	for i := 0; i < 50; i++ {
		client := "user" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		first := g.Route(client)
		for j := 0; j < 5; j++ {
			if g.Route(client) != first {
				t.Fatalf("routing of %q unstable", client)
			}
		}
	}
	// Coverage: many clients spread over all caches.
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		seen[g.Route("client"+string(rune('0'+i%10))+string(rune('a'+(i/10)%26))+string(rune('a'+i/260))).ID()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("routing covered %d caches, want 4", len(seen))
	}
}

// TestRouteTable pins the client-to-cache assignment, including clients
// whose FNV-1a sum has the top bit set: converted to a 32-bit int
// (GOARCH=386/arm) that sum is negative, and a signed modulus would index
// out of range.
func TestRouteTable(t *testing.T) {
	for _, tc := range []struct {
		client string
		sum    uint32 // FNV-1a of client
		of4    string
		of3    string
	}{
		{"u0000", 1782186320, "cache-0", "cache-2"},
		{"u0001", 1798963939, "cache-3", "cache-1"},
		{"u0042", 71560730, "cache-2", "cache-2"},
		{"u0590", 2408782710, "cache-2", "cache-0"}, // >= 1<<31
		{"alice", 2267157479, "cache-3", "cache-2"}, // >= 1<<31
	} {
		h := fnv.New32a()
		_, _ = h.Write([]byte(tc.client))
		if got := h.Sum32(); got != tc.sum {
			t.Fatalf("FNV-1a(%q) = %d, want %d", tc.client, got, tc.sum)
		}
		for caches, want := range map[int]string{4: tc.of4, 3: tc.of3} {
			g, err := New(Config{Caches: caches, AggregateBytes: 4 << 20, Scheme: core.AdHoc{}})
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Route(tc.client).ID(); got != want {
				t.Errorf("Route(%q) over %d caches = %s, want %s", tc.client, caches, got, want)
			}
		}
	}
}

func TestReplicationStats(t *testing.T) {
	g, err := New(Config{Caches: 2, AggregateBytes: 2 << 20, Scheme: core.AdHoc{}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Leaves()[0], g.Leaves()[1]
	put := func(p interface{ Store() *cache.Store }, url string) {
		t.Helper()
		if _, err := p.Store().Put(cache.Document{URL: url, Size: 10}, at(0)); err != nil {
			t.Fatal(err)
		}
	}
	put(a, "shared")
	put(b, "shared")
	put(a, "only-a")
	put(b, "only-b")

	r := g.Replication()
	if r.UniqueDocs != 3 || r.TotalCopies != 4 || r.ReplicatedDocs != 1 {
		t.Fatalf("replication = %+v", r)
	}
	if got := r.MeanCopies(); got != 4.0/3 {
		t.Fatalf("MeanCopies = %v", got)
	}
	var empty ReplicationStats
	if empty.MeanCopies() != 0 {
		t.Fatal("empty MeanCopies != 0")
	}
}

func TestAvgCumulativeExpirationAge(t *testing.T) {
	g, err := New(Config{Caches: 2, AggregateBytes: 40, Scheme: core.AdHoc{}})
	if err != nil {
		t.Fatal(err)
	}
	// No evictions anywhere: zero.
	if got := g.AvgCumulativeExpirationAge(); got != 0 {
		t.Fatalf("cold group age = %v, want 0", got)
	}
	// Force evictions on one cache only (capacity 20 per cache).
	a := g.Leaves()[0]
	if _, err := a.Store().Put(cache.Document{URL: "x", Size: 20}, at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Store().Put(cache.Document{URL: "y", Size: 20}, at(10)); err != nil {
		t.Fatal(err)
	}
	// x evicted with age 10s; the other cache has no evidence and is
	// excluded, so the group mean is 10s.
	if got := g.AvgCumulativeExpirationAge(); got != 10*time.Second {
		t.Fatalf("group age = %v, want 10s", got)
	}
}

func TestCumulativeAgesSelector(t *testing.T) {
	g, err := New(Config{
		Caches:           1,
		AggregateBytes:   100,
		Scheme:           core.EA{},
		ExpirationWindow: CumulativeAges,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With cumulative ages the signal never expires: evict once, then
	// query far in the future.
	st := g.Leaves()[0].Store()
	if _, err := st.Put(cache.Document{URL: "x", Size: 100}, at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(cache.Document{URL: "y", Size: 100}, at(10)); err != nil {
		t.Fatal(err)
	}
	if got := st.ExpirationAge(at(1000000)); got != 10*time.Second {
		t.Fatalf("cumulative age = %v, want 10s", got)
	}
}

func TestDefaultHorizonApplied(t *testing.T) {
	g, err := New(Config{Caches: 1, AggregateBytes: 100, Scheme: core.EA{}})
	if err != nil {
		t.Fatal(err)
	}
	st := g.Leaves()[0].Store()
	if _, err := st.Put(cache.Document{URL: "x", Size: 100}, at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(cache.Document{URL: "y", Size: 100}, at(10)); err != nil {
		t.Fatal(err)
	}
	// Inside the default horizon the age is visible...
	if got := st.ExpirationAge(at(20)); got != 10*time.Second {
		t.Fatalf("age = %v, want 10s", got)
	}
	// ...and expires once the (6h) horizon passes without evictions.
	later := t0.Add(cache.DefaultExpirationHorizon + time.Hour)
	if got := st.ExpirationAge(later); got != cache.NoContention {
		t.Fatalf("age = %v, want NoContention after idle horizon", got)
	}
}

func TestArchitectureString(t *testing.T) {
	if Distributed.String() != "distributed" ||
		Hierarchical.String() != "hierarchical" {
		t.Fatal("architecture names wrong")
	}
	if Architecture(9).String() != "architecture(9)" {
		t.Fatal("unknown architecture string")
	}
}

func TestGroupDigestLocation(t *testing.T) {
	g, err := New(Config{
		Caches:         2,
		AggregateBytes: 2 << 20,
		Scheme:         core.AdHoc{},
		Location:       resolve.LocateDigest,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Leaves()[0], g.Leaves()[1]
	if _, err := a.Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request("http://d/", 100, at(1)); err != nil {
		t.Fatal(err)
	}
	if b.ICP().QueriesSent != 0 {
		t.Fatal("digest-mode group sent ICP queries")
	}
	if b.ICP().DigestChecks == 0 {
		t.Fatal("digest-mode group never consulted a summary")
	}
}

// TestGroupTracerPassThrough: the group hands its decision log to every
// proxy, so one log holds the whole group's verdicts.
func TestGroupTracerPassThrough(t *testing.T) {
	log := obs.NewDecisionLog(8)
	g, err := New(Config{
		Caches:         2,
		AggregateBytes: 2 << 20,
		Scheme:         core.EA{},
		Decisions:      log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Leaves()[0].Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Leaves()[1].Request("http://d/", 100, at(1)); err != nil {
		t.Fatal(err)
	}
	var nodes []string
	for _, d := range log.Snapshot() {
		nodes = append(nodes, d.Node+" "+d.Role)
	}
	want := []string{"cache-0 requester", "cache-0 responder", "cache-1 requester"}
	if !slices.Equal(nodes, want) {
		t.Fatalf("group decision log = %q, want %q", nodes, want)
	}

	// Under hash location a URL's home records the keep verdict of the
	// miss it resolves for another cache, as a live home does.
	for i := 0; ; i++ {
		log := obs.NewDecisionLog(8)
		g, err := New(Config{Caches: 2, AggregateBytes: 2 << 20, Scheme: core.EA{}, Location: resolve.LocateHash, Decisions: log})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Leaves()[0].Request(fmt.Sprintf("http://h/%d", i), 100, at(0)); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range log.Snapshot() {
			got = append(got, d.Node+" "+d.Role+" "+d.Verdict)
		}
		if slices.Equal(got, []string{"cache-0 requester accept"}) && i < 64 {
			continue // cache-0 is the URL's home
		}
		if want := []string{"cache-1 parent accept", "cache-0 requester reject"}; !slices.Equal(got, want) {
			t.Fatalf("hash-routed miss logged %q, want %q", got, want)
		}
		break
	}
}

func TestGroupTTLOriginPassThrough(t *testing.T) {
	g, err := New(Config{
		Caches:         1,
		AggregateBytes: 1 << 20,
		Scheme:         core.AdHoc{},
		Origin:         proxy.TTLOrigin{Classes: []proxy.TTLClass{{Fraction: 1, TTL: time.Minute}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Leaves()[0]
	if _, err := p.Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	doc, ok := p.Store().Peek("http://d/")
	if !ok || doc.Expires.IsZero() {
		t.Fatalf("origin TTL not applied: %+v, %v", doc, ok)
	}
}
