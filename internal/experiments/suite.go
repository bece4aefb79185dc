package experiments

import (
	"fmt"
	"slices"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/proxy"
	"eacache/internal/resolve"
	"eacache/internal/sim"
	"eacache/internal/trace"
)

// PaperSizes are the aggregate group sizes swept in the paper's evaluation.
var PaperSizes = []int64{100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30}

// ScaledSizes scales the paper's aggregate sizes by f (used when the trace
// itself is scaled down, preserving the cache-size-to-working-set ratio).
// Every size is at least 4KB so one average document always fits.
func ScaledSizes(f float64) []int64 {
	out := make([]int64, len(PaperSizes))
	for i, s := range PaperSizes {
		v := int64(float64(s) * f)
		if v < 4096 {
			v = 4096
		}
		out[i] = v
	}
	return out
}

// Config parameterises a Suite.
type Config struct {
	// Sizes are the aggregate sizes to sweep. Defaults to PaperSizes.
	Sizes []int64
	// Caches is the group size for the per-figure sweeps (paper: the
	// published graphs use the 4-cache group). Defaults to 4.
	Caches int
	// GroupSizes is the sweep for the group-size experiment.
	// Defaults to {2, 4, 8}.
	GroupSizes []int
	// ExpirationWindow and ExpirationHorizon configure each cache's
	// placement-signal window (group.Config semantics: both zero selects
	// the default time horizon; the ablation-window experiment studies
	// alternatives).
	ExpirationWindow  int
	ExpirationHorizon time.Duration
	// Latency is the service-latency model (defaults to the paper's).
	Latency metrics.LatencyModel
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = PaperSizes
	}
	if c.Caches == 0 {
		c.Caches = 4
	}
	if len(c.GroupSizes) == 0 {
		c.GroupSizes = []int{2, 4, 8}
	}
	if c.Latency == (metrics.LatencyModel{}) {
		c.Latency = metrics.PaperLatencies
	}
	return c
}

// Suite runs experiments over one reference stream, memoizing replays so
// that experiments sharing a configuration (fig1/fig2/fig3/table1/table2,
// the ICP row of location, the immortal rows of coherence) cost one pass.
type Suite struct {
	records []trace.Record
	cfg     Config
	runs    map[cell]*sim.Report
}

// cell is one replay configuration of the suite's trace, and its memo key.
// run normalises it, so a zero architecture is distributed, a zero
// location is ICP, and a zero window and horizon are the group's default
// horizon.
type cell struct {
	scheme    string
	caches    int
	aggregate int64
	arch      group.Architecture
	policy    string
	window    int
	horizon   time.Duration
	location  resolve.Location
	// ttl stamps era-mix freshness lifetimes on documents; the default
	// origin's documents are immortal.
	ttl bool
}

// NewSuite prepares a suite over a copy of records (cleaned of zero sizes,
// as the paper does, and sorted); the caller's slice is left as it is.
func NewSuite(records []trace.Record, cfg Config) *Suite {
	cleaned := trace.CleanZeroSizes(slices.Clone(records), trace.DefaultDocSize)
	trace.SortByTime(cleaned)
	return &Suite{
		records: cleaned,
		cfg:     cfg.withDefaults(),
		runs:    make(map[cell]*sim.Report),
	}
}

// Records returns the (cleaned) reference stream the suite replays.
func (s *Suite) Records() []trace.Record { return s.records }

// Config returns the suite configuration with defaults applied.
func (s *Suite) Config() Config { return s.cfg }

// cell returns the suite's configuration at one group size and aggregate,
// scheme unset: distributed, LRU, ICP, immortal documents and the suite's
// expiration-age window.
func (s *Suite) cell(caches int, aggregate int64) cell {
	return cell{
		caches: caches, aggregate: aggregate, policy: "lru",
		window: s.cfg.ExpirationWindow, horizon: s.cfg.ExpirationHorizon,
	}
}

// run replays the suite's trace through the group c describes, once per
// configuration.
func (s *Suite) run(c cell) (*sim.Report, error) {
	if c.arch == 0 {
		c.arch = group.Distributed
	}
	if c.location == 0 {
		c.location = resolve.LocateICP
	}
	if c.window == 0 && c.horizon == 0 {
		c.horizon = cache.DefaultExpirationHorizon
	}
	if rep, ok := s.runs[c]; ok {
		return rep, nil
	}
	scheme, ok := core.New(c.scheme)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scheme %q", c.scheme)
	}
	if _, ok := cache.NewPolicy(c.policy); !ok {
		return nil, fmt.Errorf("experiments: unknown policy %q", c.policy)
	}
	var origin proxy.Origin // nil: the group's immortal default
	if c.ttl {
		origin = proxy.EraTTLOrigin()
	}
	g, err := group.New(group.Config{
		Caches:         c.caches,
		AggregateBytes: c.aggregate,
		Scheme:         scheme,
		NewPolicy: func() cache.Policy {
			p, _ := cache.NewPolicy(c.policy)
			return p
		},
		ExpirationWindow:  c.window,
		ExpirationHorizon: c.horizon,
		Architecture:      c.arch,
		Location:          c.location,
		Origin:            origin,
	})
	if err != nil {
		return nil, err
	}
	rep, err := sim.Run(g, s.records, sim.Config{Latency: s.cfg.Latency})
	if err != nil {
		return nil, err
	}
	s.runs[c] = rep
	return rep, nil
}

// runPair replays the ad-hoc and EA schemes at two configurations that
// differ only in their scheme.
func (s *Suite) runPair(c cell) (adhoc, ea *sim.Report, err error) {
	c.scheme = "adhoc"
	if adhoc, err = s.run(c); err != nil {
		return nil, nil, err
	}
	c.scheme = "ea"
	if ea, err = s.run(c); err != nil {
		return nil, nil, err
	}
	return adhoc, ea, nil
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

func ms(d time.Duration) string {
	return fmt.Sprintf("%dms", d.Milliseconds())
}

func secs(d time.Duration) string {
	return fmt.Sprintf("%.1fs", d.Seconds())
}
