package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/metrics"
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
	// Sizes are the aggregate sizes to sweep. Defaults to PaperSizes. A
	// sweep of as many sizes as PaperSizes, such as ScaledSizes', stands
	// for the paper's: each size is labelled with the paper size it
	// scales.
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

// label names size in a table: by the paper size it stands for when the
// sweep is the paper's, scaled (see Sizes), and by its bytes otherwise.
func (c Config) label(size int64) string {
	if i := slices.Index(c.Sizes, size); i >= 0 && len(c.Sizes) == len(PaperSizes) {
		size = PaperSizes[i]
	}
	return sim.FormatBytes(size)
}

// Suite runs experiments over one reference stream, memoizing replays so
// that experiments sharing a configuration (fig1/fig2/fig3/table1/table2,
// the ICP row of location) cost one pass. The replays run on a pool of one
// worker per core; each table is built from its replays' reports in a fixed
// order, so the output does not depend on how many cores there are.
type Suite struct {
	records []trace.Record
	cfg     Config
	pool    pool
	mu      sync.Mutex
	runs    map[cell]*flight // guarded by mu
}

// pool bounds the work that runs at once, replays and MultiSeed's trace
// generations, to one job per core. A job must not wait for another job of
// the same pool, or a full pool deadlocks.
type pool chan struct{}

func newPool() pool { return make(pool, runtime.GOMAXPROCS(0)) }

// do runs f as one job, once a worker is free.
func (p pool) do(f func()) {
	p <- struct{}{}
	defer func() { <-p }()
	f()
}

// each runs f(0) to f(n-1) as n concurrent jobs and returns the error of the
// lowest index that failed.
func (p pool) each(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			p.do(func() { errs[i] = f(i) })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// flight is one cell's replay, started once and waited for by every
// experiment that asks for the cell.
type flight struct {
	done chan struct{}
	rep  *sim.Report
	err  error
}

// cell is one replay configuration of the suite's trace, and its memo key.
// start normalises it, so a zero architecture is distributed, a zero
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
}

// NewSuite prepares a suite over a copy of records (cleaned of zero sizes,
// as the paper does, and sorted); the caller's slice is left as it is.
func NewSuite(records []trace.Record, cfg Config) *Suite {
	return newSuite(slices.Clone(records), cfg, newPool())
}

// newSuite prepares a suite that replays on p over records, which it
// cleans and sorts in place.
func newSuite(records []trace.Record, cfg Config, p pool) *Suite {
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)
	trace.SortByTime(records)
	return &Suite{
		records: records,
		cfg:     cfg.withDefaults(),
		pool:    p,
		runs:    make(map[cell]*flight),
	}
}

// Records returns the (cleaned) reference stream the suite replays.
func (s *Suite) Records() []trace.Record { return s.records }

// Config returns the suite configuration with defaults applied.
func (s *Suite) Config() Config { return s.cfg }

// cell returns the suite's configuration at one group size and aggregate,
// scheme unset: distributed, LRU, ICP and the suite's expiration-age
// window.
func (s *Suite) cell(caches int, aggregate int64) cell {
	return cell{
		caches: caches, aggregate: aggregate, policy: "lru",
		window: s.cfg.ExpirationWindow, horizon: s.cfg.ExpirationHorizon,
	}
}

// cells returns the suite's cell at caches and each of sizes.
func (s *Suite) cells(caches int, sizes []int64) []cell {
	cs := make([]cell, len(sizes))
	for i, size := range sizes {
		cs[i] = s.cell(caches, size)
	}
	return cs
}

// runAll replays the cells concurrently, each once per configuration, and
// returns their reports in the order of cells, or the error of the first
// cell in that order that failed.
func (s *Suite) runAll(cells ...cell) ([]*sim.Report, error) {
	flights := make([]*flight, len(cells))
	for i, c := range cells {
		flights[i] = s.start(c)
	}
	reps := make([]*sim.Report, len(cells))
	for i, f := range flights {
		if <-f.done; f.err != nil {
			return nil, f.err
		}
		reps[i] = f.rep
	}
	return reps, nil
}

// start returns c's flight, first starting its replay on the pool unless an
// earlier call did.
func (s *Suite) start(c cell) *flight {
	if c.arch == 0 {
		c.arch = group.Distributed
	}
	if c.location == 0 {
		c.location = resolve.LocateICP
	}
	if c.window == 0 && c.horizon == 0 {
		c.horizon = cache.DefaultExpirationHorizon
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.runs[c]; ok {
		return f
	}
	f := &flight{done: make(chan struct{})}
	s.runs[c] = f
	go func() {
		defer close(f.done)
		s.pool.do(func() { f.rep, f.err = s.replay(c) })
	}()
	return f
}

// replay replays the suite's trace through the group c describes.
func (s *Suite) replay(c cell) (*sim.Report, error) {
	scheme, ok := core.New(c.scheme)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scheme %q", c.scheme)
	}
	if _, ok := cache.NewPolicy(c.policy); !ok {
		return nil, fmt.Errorf("experiments: unknown policy %q", c.policy)
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
	})
	if err != nil {
		return nil, err
	}
	return sim.Run(g, s.records, sim.Config{Latency: s.cfg.Latency})
}

// runPairs replays the ad-hoc and EA schemes at each of cells, all
// concurrently, and returns the reports of each scheme in the order of
// cells.
func (s *Suite) runPairs(cells []cell) (adhoc, ea []*sim.Report, err error) {
	both := make([]cell, 0, 2*len(cells))
	for _, c := range cells {
		c.scheme = "adhoc"
		both = append(both, c)
		c.scheme = "ea"
		both = append(both, c)
	}
	reps, err := s.runAll(both...)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(reps); i += 2 {
		adhoc, ea = append(adhoc, reps[i]), append(ea, reps[i+1])
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
