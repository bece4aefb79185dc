package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"eacache/internal/group"
	"eacache/internal/sim"
)

// IDs lists every experiment, in report order: the paper's five artifacts,
// its textual claims, then the ablations and related-work extensions
// DESIGN.md indexes.
var IDs = []string{
	"fig1", "fig2", "fig3", "table1", "table2",
	"groupsize", "replication", "ablation-policy", "ablation-window", "hierarchy",
	"location", "partitioned", "coherence", "worstcase", "model-check",
}

// Experiment runs one experiment by ID.
func (s *Suite) Experiment(id string) (*Table, error) {
	switch id {
	case "fig1":
		return s.Fig1()
	case "fig2":
		return s.Fig2()
	case "fig3":
		return s.Fig3()
	case "table1":
		return s.Table1()
	case "table2":
		return s.Table2()
	case "groupsize":
		return s.GroupSize()
	case "replication":
		return s.ReplicationStudy()
	case "ablation-policy":
		return s.AblationPolicy()
	case "ablation-window":
		return s.AblationWindow()
	case "hierarchy":
		return s.Hierarchy()
	case "location":
		return s.Location()
	case "partitioned":
		return s.Partitioned()
	case "coherence":
		return s.Coherence()
	case "worstcase":
		return s.WorstCase()
	case "model-check":
		return s.ModelCheck()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}

// All runs every experiment in order.
func (s *Suite) All() ([]*Table, error) {
	tables := make([]*Table, 0, len(IDs))
	for _, id := range IDs {
		t, err := s.Experiment(id)
		if err != nil {
			return tables, fmt.Errorf("experiments: %s: %w", id, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig1 regenerates Figure 1: cumulative document hit rate of the ad-hoc and
// EA schemes for the 4-cache group across aggregate sizes.
func (s *Suite) Fig1() (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   fmt.Sprintf("Document hit rates, %d-cache group (paper Figure 1)", s.cfg.Caches),
		Columns: []string{"aggregate", "adhoc hit-rate", "ea hit-rate", "delta (pp)"},
		Notes: []string{
			"paper: EA above ad-hoc everywhere, gap widest at the smallest sizes",
		},
	}
	chart := newSchemeChart("Figure 1: document hit rate vs aggregate size", "hit rate (%)", s.cfg.Sizes)
	for i, size := range s.cfg.Sizes {
		adhoc, ea, err := s.runPair(s.cell(s.cfg.Caches, size))
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			pct(adhoc.Group.HitRate()), pct(ea.Group.HitRate()),
			fmt.Sprintf("%+.2f", 100*(ea.Group.HitRate()-adhoc.Group.HitRate())))
		chart.Series[0].Values[i] = 100 * adhoc.Group.HitRate()
		chart.Series[1].Values[i] = 100 * ea.Group.HitRate()
	}
	t.Chart = chart
	return t, nil
}

// newSchemeChart prepares the two-series (ad-hoc vs EA) figure scaffold the
// paper's plots use.
func newSchemeChart(title, ylabel string, sizes []int64) *Chart {
	labels := make([]string, len(sizes))
	for i, s := range sizes {
		labels[i] = sim.FormatBytes(s)
	}
	nan := func() []float64 {
		vs := make([]float64, len(sizes))
		for i := range vs {
			vs[i] = math.NaN()
		}
		return vs
	}
	return &Chart{
		Title:   title,
		YLabel:  ylabel,
		XLabels: labels,
		Series: []Series{
			{Name: "adhoc", Mark: 'a', Values: nan()},
			{Name: "ea", Mark: 'e', Values: nan()},
		},
	}
}

// Fig2 regenerates Figure 2: cumulative byte hit rate.
func (s *Suite) Fig2() (*Table, error) {
	t := &Table{
		ID:      "fig2",
		Title:   fmt.Sprintf("Byte hit rates, %d-cache group (paper Figure 2)", s.cfg.Caches),
		Columns: []string{"aggregate", "adhoc byte-hit", "ea byte-hit", "delta (pp)"},
		Notes: []string{
			"paper: byte hit rate patterns mirror the document hit rates",
		},
	}
	chart := newSchemeChart("Figure 2: byte hit rate vs aggregate size", "byte hit rate (%)", s.cfg.Sizes)
	for i, size := range s.cfg.Sizes {
		adhoc, ea, err := s.runPair(s.cell(s.cfg.Caches, size))
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			pct(adhoc.Group.ByteHitRate()), pct(ea.Group.ByteHitRate()),
			fmt.Sprintf("%+.2f", 100*(ea.Group.ByteHitRate()-adhoc.Group.ByteHitRate())))
		chart.Series[0].Values[i] = 100 * adhoc.Group.ByteHitRate()
		chart.Series[1].Values[i] = 100 * ea.Group.ByteHitRate()
	}
	t.Chart = chart
	return t, nil
}

// Fig3 regenerates Figure 3: estimated average latency (paper eq. 6 with
// LHL=146ms, RHL=342ms, ML=2784ms).
func (s *Suite) Fig3() (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   fmt.Sprintf("Estimated average latency, %d-cache group (paper Figure 3)", s.cfg.Caches),
		Columns: []string{"aggregate", "adhoc latency", "ea latency", "delta"},
		Notes: []string{
			"paper: EA clearly lower at 100KB-10MB, converging at 100MB, ad-hoc slightly ahead at 1GB",
		},
	}
	chart := newSchemeChart("Figure 3: estimated average latency vs aggregate size", "latency (ms)", s.cfg.Sizes)
	chart.YFormat = func(v float64) string { return fmt.Sprintf("%.0f", v) }
	for i, size := range s.cfg.Sizes {
		adhoc, ea, err := s.runPair(s.cell(s.cfg.Caches, size))
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			ms(adhoc.EstimatedLatency), ms(ea.EstimatedLatency),
			fmt.Sprintf("%+dms", (ea.EstimatedLatency-adhoc.EstimatedLatency).Milliseconds()))
		chart.Series[0].Values[i] = float64(adhoc.EstimatedLatency.Milliseconds())
		chart.Series[1].Values[i] = float64(ea.EstimatedLatency.Milliseconds())
	}
	t.Chart = chart
	return t, nil
}

// Table1 regenerates Table 1: average cache expiration age (seconds) of the
// 4-cache group under both schemes.
func (s *Suite) Table1() (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("Average cache expiration age, %d-cache group (paper Table 1)", s.cfg.Caches),
		Columns: []string{"aggregate", "adhoc exp-age", "ea exp-age", "ratio"},
		Notes: []string{
			"paper measures 100KB-100MB; expiration ages under EA are consistently higher",
		},
	}
	for _, size := range s.cfg.Sizes {
		if size == s.cfg.Sizes[len(s.cfg.Sizes)-1] && len(s.cfg.Sizes) == len(PaperSizes) {
			// The paper's Table 1 stops at 100MB (at 1GB eviction
			// traffic is too thin for a stable average).
			continue
		}
		adhoc, ea, err := s.runPair(s.cell(s.cfg.Caches, size))
		if err != nil {
			return nil, err
		}
		ratio := "n/a"
		if adhoc.AvgCacheExpirationAge > 0 {
			ratio = fmt.Sprintf("%.2fx", ea.AvgCacheExpirationAge.Seconds()/adhoc.AvgCacheExpirationAge.Seconds())
		}
		t.AddRow(sim.FormatBytes(size),
			secs(adhoc.AvgCacheExpirationAge), secs(ea.AvgCacheExpirationAge), ratio)
	}
	return t, nil
}

// Table2 regenerates Table 2: local hit rate, remote hit rate and estimated
// latency for both schemes at every aggregate size.
func (s *Suite) Table2() (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: fmt.Sprintf("Local/remote hits and latency, %d-cache group (paper Table 2)", s.cfg.Caches),
		Columns: []string{"aggregate",
			"adhoc local", "adhoc remote", "adhoc latency",
			"ea local", "ea remote", "ea latency"},
		Notes: []string{
			"paper: EA trades local for remote hits; remote share grows with cache size (paper at 1GB: EA 32.02% vs ad-hoc 11.06% remote)",
		},
	}
	for _, size := range s.cfg.Sizes {
		adhoc, ea, err := s.runPair(s.cell(s.cfg.Caches, size))
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			pct(adhoc.Group.LocalHitRate()), pct(adhoc.Group.RemoteHitRate()), ms(adhoc.EstimatedLatency),
			pct(ea.Group.LocalHitRate()), pct(ea.Group.RemoteHitRate()), ms(ea.EstimatedLatency))
	}
	return t, nil
}

// GroupSize regenerates the §4.2 text claims: the EA-vs-ad-hoc hit-rate gap
// for 2-, 4- and 8-cache groups at a small and a large aggregate size
// (paper: ≈6.5pp at 100KB and ≈2.5pp at 100MB for 8 caches; byte-hit gains
// ≈4pp and ≈1.5pp).
func (s *Suite) GroupSize() (*Table, error) {
	small, large := s.cfg.Sizes[0], s.cfg.Sizes[len(s.cfg.Sizes)-2]
	t := &Table{
		ID:    "groupsize",
		Title: "Hit-rate gain (EA - adhoc) vs group size (paper §4.2 text)",
		Columns: []string{"caches",
			"hit gain @" + sim.FormatBytes(small), "hit gain @" + sim.FormatBytes(large),
			"byte gain @" + sim.FormatBytes(small), "byte gain @" + sim.FormatBytes(large)},
		Notes: []string{
			"paper (8 caches): +6.5pp hits at 100KB, +2.5pp at 100MB; +4pp bytes at 100KB, +1.5pp at 100MB",
		},
	}
	for _, n := range s.cfg.GroupSizes {
		adS, eaS, err := s.runPair(s.cell(n, small))
		if err != nil {
			return nil, err
		}
		adL, eaL, err := s.runPair(s.cell(n, large))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%+.2fpp", 100*(eaS.Group.HitRate()-adS.Group.HitRate())),
			fmt.Sprintf("%+.2fpp", 100*(eaL.Group.HitRate()-adL.Group.HitRate())),
			fmt.Sprintf("%+.2fpp", 100*(eaS.Group.ByteHitRate()-adS.Group.ByteHitRate())),
			fmt.Sprintf("%+.2fpp", 100*(eaL.Group.ByteHitRate()-adL.Group.ByteHitRate())))
	}
	return t, nil
}

// ReplicationStudy quantifies the motivation of §2: how many replicas each
// scheme keeps and how many unique documents the group can hold.
func (s *Suite) ReplicationStudy() (*Table, error) {
	t := &Table{
		ID:    "replication",
		Title: "End-of-run replication (motivation, paper §2-3)",
		Columns: []string{"aggregate",
			"adhoc copies/doc", "ea copies/doc",
			"adhoc unique", "ea unique"},
		Notes: []string{
			"the EA scheme exists to push copies/doc toward 1 and unique documents up",
		},
	}
	for _, size := range s.cfg.Sizes {
		adhoc, ea, err := s.runPair(s.cell(s.cfg.Caches, size))
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			fmt.Sprintf("%.3f", adhoc.Replication.MeanCopies()),
			fmt.Sprintf("%.3f", ea.Replication.MeanCopies()),
			fmt.Sprintf("%d", adhoc.Replication.UniqueDocs),
			fmt.Sprintf("%d", ea.Replication.UniqueDocs))
	}
	return t, nil
}

// AblationPolicy evaluates the schemes under LFU replacement, exercising
// the paper's LFU expiration-age definition (eq. 3).
func (s *Suite) AblationPolicy() (*Table, error) {
	t := &Table{
		ID:      "ablation-policy",
		Title:   "EA vs ad-hoc under LFU replacement (paper §3.2.2)",
		Columns: []string{"aggregate", "adhoc hit-rate", "ea hit-rate", "delta (pp)"},
	}
	sizes := middleSizes(s.cfg.Sizes, 3)
	for _, size := range sizes {
		c := s.cell(s.cfg.Caches, size)
		c.policy = "lfu"
		adhoc, ea, err := s.runPair(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			pct(adhoc.Group.HitRate()), pct(ea.Group.HitRate()),
			fmt.Sprintf("%+.2f", 100*(ea.Group.HitRate()-adhoc.Group.HitRate())))
	}
	return t, nil
}

// AblationWindow sweeps the expiration-age window — the implementation
// parameter behind the paper's "finite time duration (Ti, Tj)" — across
// time horizons, eviction-count windows, and the cumulative average.
func (s *Suite) AblationWindow() (*Table, error) {
	t := &Table{
		ID:      "ablation-window",
		Title:   "EA hit rate vs expiration-age window (paper's (Ti,Tj) choice)",
		Columns: []string{"window", "ea hit-rate", "ea byte-hit", "est latency"},
		Notes: []string{
			"a responsive time horizon spreads placement; a cumulative average lets one cache hoard",
		},
	}
	size := middleSizes(s.cfg.Sizes, 1)[0]
	type variant struct {
		label   string
		window  int
		horizon time.Duration
	}
	variants := []variant{
		{"horizon 1h", 0, time.Hour},
		{"horizon 6h", 0, 6 * time.Hour},
		{"horizon 24h", 0, 24 * time.Hour},
		{"count 128", 128, 0},
		{"count 512", 512, 0},
		{"cumulative", group.CumulativeAges, 0},
	}
	for _, v := range variants {
		c := s.cell(s.cfg.Caches, size)
		c.scheme, c.window, c.horizon = "ea", v.window, v.horizon
		rep, err := s.run(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.label, pct(rep.Group.HitRate()), pct(rep.Group.ByteHitRate()), ms(rep.EstimatedLatency))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("aggregate size %s", sim.FormatBytes(size)))
	return t, nil
}

// Hierarchy evaluates the §3.3 hierarchical algorithm: leaves plus a shared
// parent, both schemes.
func (s *Suite) Hierarchy() (*Table, error) {
	t := &Table{
		ID:      "hierarchy",
		Title:   fmt.Sprintf("Hierarchical architecture, %d leaves + 1 parent (paper §3.3)", s.cfg.Caches),
		Columns: []string{"aggregate", "adhoc hit-rate", "ea hit-rate", "adhoc latency", "ea latency"},
	}
	sizes := middleSizes(s.cfg.Sizes, 3)
	for _, size := range sizes {
		c := s.cell(s.cfg.Caches, size)
		c.arch = group.Hierarchical
		adhoc, ea, err := s.runPair(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			pct(adhoc.Group.HitRate()), pct(ea.Group.HitRate()),
			ms(adhoc.EstimatedLatency), ms(ea.EstimatedLatency))
	}
	return t, nil
}

// middleSizes picks up to n sizes centred on the middle of the sweep, so
// ablations run at representative (not degenerate) cache sizes.
func middleSizes(sizes []int64, n int) []int64 {
	if n >= len(sizes) {
		out := append([]int64(nil), sizes...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	start := (len(sizes) - n) / 2
	return append([]int64(nil), sizes[start:start+n]...)
}
