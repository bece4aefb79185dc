// Package sim drives a cache group with a reference stream: it replays
// trace records in timestamp order against the group, applies the paper's
// latency model to every outcome, and produces the report the experiment
// harness and benchmarks consume.
//
// The simulation is deterministic: same trace + same group configuration
// yields bit-identical reports.
package sim

import (
	"fmt"
	"time"

	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/proxy"
	"eacache/internal/trace"
)

// Config parameterises a run.
type Config struct {
	// Latency is the service-latency model. Defaults to
	// metrics.PaperLatencies (146/342/2784 ms).
	Latency metrics.LatencyModel
	// Warmup is the fraction of the trace (from the start) replayed to
	// populate the caches without being counted in the metrics. The
	// paper reports whole-run (cold-start-inclusive) numbers, so the
	// default is 0; warmed measurements isolate steady-state behaviour.
	Warmup float64
}

func (c Config) withDefaults() Config {
	if c.Latency == (metrics.LatencyModel{}) {
		c.Latency = metrics.PaperLatencies
	}
	return c
}

// ProxyReport is the per-cache slice of a Report.
type ProxyReport struct {
	ID       string
	Counters metrics.CountersSnapshot
	// Evictions and ExpirationAge describe the cache's contention over
	// the run (cumulative expiration age, the Table 1 quantity).
	Evictions     int64
	ExpirationAge time.Duration
	ResidentDocs  int
	ResidentBytes int64
	ICP           proxy.ICPStats
}

// Report is the outcome of one simulation run.
type Report struct {
	// Scheme and Architecture echo the group configuration.
	Scheme       string
	Architecture group.Architecture
	Caches       int
	Aggregate    int64

	// Group aggregates every request in the run.
	Group metrics.CountersSnapshot
	// PerProxy holds one entry per client-facing cache plus the
	// hierarchy parent (last) if present. The parent serves no clients
	// directly, so its Counters stay zero, but its cache statistics
	// matter.
	PerProxy []ProxyReport

	// AvgCacheExpirationAge is the paper's Table 1 metric.
	AvgCacheExpirationAge time.Duration
	// EstimatedLatency is the paper's equation 6 applied to the outcome
	// mix.
	EstimatedLatency time.Duration
	// Replication summarises end-of-run document replication.
	Replication group.ReplicationStats

	// Latency echoes the model used.
	Latency metrics.LatencyModel
}

// Run replays records (which must be chronologically sorted — use
// trace.SortByTime) against g and reports the paper's metrics.
func Run(g *group.Group, records []trace.Record, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if g == nil {
		return nil, fmt.Errorf("sim: nil group")
	}
	if cfg.Warmup < 0 || cfg.Warmup >= 1 {
		return nil, fmt.Errorf("sim: warmup must be in [0,1), got %v", cfg.Warmup)
	}
	if !trace.Sorted(records) {
		return nil, fmt.Errorf("sim: trace is not sorted by time")
	}
	warm := int(cfg.Warmup * float64(len(records)))

	perProxy := make(map[string]*metrics.Counters, len(g.Leaves()))
	for _, p := range g.Leaves() {
		perProxy[p.ID()] = &metrics.Counters{}
	}

	var total metrics.Counters
	for i, rec := range records {
		size := rec.Size
		if size <= 0 {
			// The paper substitutes 4KB for a record without a size.
			size = trace.DefaultDocSize
		}
		p := g.Route(rec.Client)
		res, err := p.Request(rec.URL, size, rec.Time())
		if err != nil {
			return nil, fmt.Errorf("sim: record %d: %w", i, err)
		}
		if i < warm {
			continue // warmup: populate caches, record nothing
		}
		lat := cfg.Latency.Of(res.Outcome)
		total.Record(res.Outcome, size)
		total.AddSimLatency(lat)
		pc := perProxy[p.ID()]
		pc.Record(res.Outcome, size)
		pc.AddSimLatency(lat)
	}
	return buildReport(g, total.Snapshot(), perProxy, cfg), nil
}

func buildReport(g *group.Group, total metrics.CountersSnapshot, perProxy map[string]*metrics.Counters, cfg Config) *Report {
	gc := g.Config()
	rep := &Report{
		Scheme:                gc.Scheme.Name(),
		Architecture:          gc.Architecture,
		Caches:                gc.Caches,
		Aggregate:             gc.AggregateBytes,
		Group:                 total,
		AvgCacheExpirationAge: g.AvgCumulativeExpirationAge(),
		EstimatedLatency:      cfg.Latency.EstimatedAverageLatency(total),
		Replication:           g.Replication(),
		Latency:               cfg.Latency,
	}
	for _, p := range g.All() {
		pr := ProxyReport{
			ID:            p.ID(),
			Evictions:     p.Store().Evictions(),
			ExpirationAge: p.Store().CumulativeExpirationAge(),
			ResidentDocs:  p.Store().Len(),
			ResidentBytes: p.Store().Used(),
			ICP:           p.ICP(),
		}
		if c, ok := perProxy[p.ID()]; ok {
			pr.Counters = c.Snapshot()
		}
		rep.PerProxy = append(rep.PerProxy, pr)
	}
	return rep
}

// String implements fmt.Stringer with a compact run summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"%s/%s caches=%d agg=%s: hit=%.2f%% byte-hit=%.2f%% local=%.2f%% remote=%.2f%% miss=%.2f%% est-lat=%s exp-age=%s",
		r.Scheme, r.Architecture, r.Caches, FormatBytes(r.Aggregate),
		100*r.Group.HitRate(), 100*r.Group.ByteHitRate(),
		100*r.Group.LocalHitRate(), 100*r.Group.RemoteHitRate(), 100*r.Group.MissRate(),
		r.EstimatedLatency.Round(time.Millisecond),
		r.AvgCacheExpirationAge.Round(time.Second),
	)
}

// FormatBytes renders a byte count in the paper's units (100KB, 1MB, ...).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n/(1<<30))
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n/(1<<20))
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
