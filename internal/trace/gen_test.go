package trace

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"eacache/internal/dist"
)

func smallConfig() GenConfig {
	cfg := BULike().Scaled(0.02) // ~11.5k requests
	return cfg
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config+seed produced different traces")
	}
	cfg := smallConfig()
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGenerateOneHandlePerUser: every record of one user carries the same
// Client, and no two users share one.
func TestGenerateOneHandlePerUser(t *testing.T) {
	records, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName, names := map[string]Client{}, map[Client]string{}
	for i, r := range records {
		name := r.Client.String()
		if !strings.HasPrefix(name, "u") {
			t.Fatalf("record %d: client %q", i, name)
		}
		if c, ok := byName[name]; ok && c != r.Client {
			t.Fatalf("record %d: user %q carries a second handle", i, name)
		}
		if n, ok := names[r.Client]; ok && n != name {
			t.Fatalf("record %d: users %q and %q share a handle", i, n, name)
		}
		byName[name], names[r.Client] = r.Client, name
	}
	if len(byName) < 2 {
		t.Fatalf("%d users in the trace", len(byName))
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := smallConfig()
	records, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != cfg.Requests {
		t.Fatalf("got %d records, want exactly %d", len(records), cfg.Requests)
	}
	if !Sorted(records) {
		t.Fatal("generated trace not sorted")
	}
	s := ComputeStats(records)
	if s.UniqueDocs > cfg.UniqueDocs {
		t.Fatalf("unique docs %d exceed catalogue %d", s.UniqueDocs, cfg.UniqueDocs)
	}
	if s.UniqueClients > cfg.Users {
		t.Fatalf("clients %d exceed users %d", s.UniqueClients, cfg.Users)
	}
	// Zero-size fraction roughly matches the configured rate.
	zeroFrac := float64(s.ZeroSize) / float64(s.Requests)
	if math.Abs(zeroFrac-cfg.ZeroSizeFraction) > 0.02 {
		t.Fatalf("zero-size fraction %v, want ~%v", zeroFrac, cfg.ZeroSizeFraction)
	}
	// Everything inside the configured span (plus session tails).
	if s.Start.Before(cfg.Start) {
		t.Fatalf("record before Start: %v", s.Start)
	}
	if s.End.After(cfg.Start.Add(cfg.Span + 24*time.Hour)) {
		t.Fatalf("record far past Span: %v", s.End)
	}
}

func TestGeneratePopularitySkew(t *testing.T) {
	cfg := smallConfig()
	records, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, r := range records {
		counts[r.URL]++
	}
	// The head must be far above the mean: take the max count.
	max, sum := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	mean := float64(sum) / float64(len(counts))
	if float64(max) < 10*mean {
		t.Fatalf("popularity not skewed: max=%d mean=%.1f", max, mean)
	}
}

func TestGenerateMeanSize(t *testing.T) {
	cfg := BULike().Scaled(0.1)
	cfg.ZeroSizeFraction = 0
	records, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(records)
	// The request-weighted mean is pulled below the catalogue mean by the
	// small hot documents; it must still be within a factor 3.
	if s.MeanSize() < float64(cfg.MeanDocSize)/3 || s.MeanSize() > float64(cfg.MeanDocSize)*3 {
		t.Fatalf("mean size %v, configured %v", s.MeanSize(), cfg.MeanDocSize)
	}
}

func TestGenerateDiurnalConcentration(t *testing.T) {
	cfg := smallConfig()
	records, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day, night := 0, 0
	for _, r := range records {
		h := r.Time().Hour()
		if h >= 9 && h < 21 {
			day++
		} else if h >= 0 && h < 8 {
			night++
		}
	}
	if day < night*2 {
		t.Fatalf("no diurnal concentration: day=%d night=%d", day, night)
	}
}

func TestGenerateCohortSharing(t *testing.T) {
	cfg := smallConfig()
	cfg.CohortFraction = 1
	withCohorts, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig()
	cfg2.CohortFraction = 0
	solo, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Cohorts reuse a shared master stream, so the distinct-document
	// count drops sharply relative to independent sessions.
	cu := ComputeStats(withCohorts).UniqueDocs
	su := ComputeStats(solo).UniqueDocs
	if cu >= su {
		t.Fatalf("cohorts did not concentrate references: cohort unique=%d solo unique=%d", cu, su)
	}
}

// overInt32 is one past math.MaxInt32. A variable, so that converting it to
// an int compiles on a 32-bit platform, where the rows that need it skip.
var overInt32 int64 = math.MaxInt32 + 1

func TestGenerateValidation(t *testing.T) {
	mods := map[string]func(*GenConfig){
		"requests":       func(c *GenConfig) { c.Requests = 0 },
		"docs":           func(c *GenConfig) { c.UniqueDocs = 0 },
		"zipf":           func(c *GenConfig) { c.ZipfAlpha = -1 },
		"hotdocs":        func(c *GenConfig) { c.HotDocs = -1 },
		"hotdocs>docs":   func(c *GenConfig) { c.HotDocs = c.UniqueDocs + 1 },
		"hotweight":      func(c *GenConfig) { c.HotWeight = 1 },
		"hot w/o docs":   func(c *GenConfig) { c.HotDocs = 0; c.HotWeight = 0.5 },
		"inline":         func(c *GenConfig) { c.InlinePerView = -1 },
		"meansize":       func(c *GenConfig) { c.MeanDocSize = 0 },
		"maxsize":        func(c *GenConfig) { c.MaxDocSize = c.MeanDocSize },
		"sizealpha":      func(c *GenConfig) { c.SizeAlpha = 0 },
		"zerofrac":       func(c *GenConfig) { c.ZeroSizeFraction = 1 },
		"docs>int32":     func(c *GenConfig) { c.UniqueDocs = int(overInt32) },
		"users":          func(c *GenConfig) { c.Users = 0 },
		"users>int32":    func(c *GenConfig) { c.Users = int(overInt32) },
		"sessions":       func(c *GenConfig) { c.Sessions = 0 },
		"sessionlength":  func(c *GenConfig) { c.SessionLength = 0 },
		"selfaffinity":   func(c *GenConfig) { c.SelfAffinity = 1 },
		"historydepth":   func(c *GenConfig) { c.HistoryDepth = -1 },
		"useractivity":   func(c *GenConfig) { c.UserActivityAlpha = -1 },
		"cohortfraction": func(c *GenConfig) { c.CohortFraction = 1.5 },
		"cohortsize":     func(c *GenConfig) { c.CohortFraction = 0.5; c.CohortSize = 1 },
		"diurnal":        func(c *GenConfig) { c.DiurnalStrength = 1 },
		"weekend":        func(c *GenConfig) { c.WeekendFactor = 2 },
		"span":           func(c *GenConfig) { c.Span = 0 },
	}
	for name, mod := range mods {
		t.Run(name, func(t *testing.T) {
			if strings.HasSuffix(name, ">int32") && strconv.IntSize == 32 {
				t.Skip("no int exceeds MaxInt32 on a 32-bit platform")
			}
			cfg := BULike()
			mod(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("%s: invalid config accepted", name)
			}
			if _, err := Generate(cfg); err == nil {
				t.Fatalf("%s: Generate accepted invalid config", name)
			}
		})
	}
	if err := BULike().Validate(); err != nil {
		t.Fatalf("BULike invalid: %v", err)
	}
}

func TestScaled(t *testing.T) {
	cfg := BULike().Scaled(0.01)
	if cfg.Requests != 5757 {
		t.Fatalf("Requests = %d", cfg.Requests)
	}
	if cfg.UniqueDocs != 468 {
		t.Fatalf("UniqueDocs = %d", cfg.UniqueDocs)
	}
	tiny := BULike().Scaled(0.0000001)
	if tiny.Requests < 1 || tiny.Users < 1 || tiny.Sessions < 1 || tiny.UniqueDocs < 1 {
		t.Fatalf("Scaled floor violated: %+v", tiny)
	}
}

func TestDocURLStable(t *testing.T) {
	if docURL(5) != docURL(5) {
		t.Fatal("docURL not deterministic")
	}
	if docURL(1) == docURL(2) {
		t.Fatal("distinct ids collide")
	}
	if !strings.HasPrefix(docURL(0), "http://") {
		t.Fatalf("unexpected URL shape %q", docURL(0))
	}
}

func TestSampleGeometric(t *testing.T) {
	// mean 0 always returns 0
	r := newTestRNG()
	for i := 0; i < 100; i++ {
		if sampleGeometric(r, 0) != 0 {
			t.Fatal("sampleGeometric(0) != 0")
		}
	}
	// mean 2: empirical mean near 2, capped at 8
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := sampleGeometric(r, 2)
		if v < 0 || v > 8 {
			t.Fatalf("out of range: %d", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if mean < 1.6 || mean > 2.2 {
		t.Fatalf("geometric mean = %v, want ~1.9 (capped)", mean)
	}
}

func TestHistory(t *testing.T) {
	h := newHistory(3)
	if h.len() != 0 {
		t.Fatal("fresh history non-empty")
	}
	for i := 1; i <= 5; i++ {
		h.add(i)
	}
	if h.len() != 3 {
		t.Fatalf("len = %d, want 3 (capped)", h.len())
	}
	r := newTestRNG()
	for i := 0; i < 100; i++ {
		v := h.pick(r)
		if v < 3 || v > 5 {
			t.Fatalf("pick returned stale value %d", v)
		}
	}
}

func newTestRNG() *dist.RNG { return dist.NewRNG(12345) }
