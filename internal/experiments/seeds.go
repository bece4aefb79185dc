package experiments

import (
	"fmt"
	"math"
	"time"

	"eacache/internal/sim"
	"eacache/internal/trace"
)

// MultiSeed replays several independently generated workloads and reports
// the EA-minus-ad-hoc differences with their spread — the confidence check
// a single-trace study (the paper included) cannot give. generate(i)
// returns workload i of seeds, which MultiSeed then owns; the suite
// configuration applies to all of them.
func MultiSeed(seeds int, generate func(i int) ([]trace.Record, error), cfg Config) (*Table, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: MultiSeed needs at least 2 workloads, got %d", seeds)
	}
	cfg = cfg.withDefaults()

	t := &Table{
		ID:    "multiseed",
		Title: fmt.Sprintf("EA - adhoc across %d workload seeds (mean +/- sd)", seeds),
		Columns: []string{"aggregate",
			"hit delta (pp)", "byte delta (pp)", "latency delta (ms)"},
		Notes: []string{
			"positive hit/byte deltas and negative latency deltas favour the EA scheme",
		},
	}

	perSize, err := seedDeltas(seeds, generate, cfg)
	if err != nil {
		return nil, err
	}

	for _, size := range cfg.Sizes {
		d := perSize[size]
		label := cfg.label(size)
		if d.saturated == seeds {
			label += " (saturated)"
		}
		t.AddRow(label, meanSD(d.hit), meanSD(d.byteHit), meanSD(d.latency))
	}
	return t, nil
}

// deltas are one size's EA-minus-ad-hoc differences, one per workload in
// seed order: hit and byte hit rates and the remote-hit share in percentage
// points, estimated latency in ms, the average cumulative expiration age
// (Table 1) in seconds, and the end-of-run copies per resident document.
// saturated counts the workloads whose ad-hoc group evicted nothing at that
// size, so both schemes sit at the trace's hit-rate ceiling.
type deltas struct {
	hit, byteHit, latency, remote, expAge, copies []float64
	saturated                                     int
}

// add appends one workload's differences at the size.
func (d *deltas) add(adhoc, ea *sim.Report) {
	d.hit = append(d.hit, 100*(ea.Group.HitRate()-adhoc.Group.HitRate()))
	d.byteHit = append(d.byteHit, 100*(ea.Group.ByteHitRate()-adhoc.Group.ByteHitRate()))
	d.latency = append(d.latency,
		float64((ea.EstimatedLatency-adhoc.EstimatedLatency)/time.Millisecond))
	d.remote = append(d.remote, 100*(ea.Group.RemoteHitRate()-adhoc.Group.RemoteHitRate()))
	d.expAge = append(d.expAge, (ea.AvgCacheExpirationAge - adhoc.AvgCacheExpirationAge).Seconds())
	d.copies = append(d.copies, ea.Replication.MeanCopies()-adhoc.Replication.MeanCopies())
	var evictions int64
	for _, p := range adhoc.PerProxy {
		evictions += p.Evictions
	}
	if evictions == 0 {
		d.saturated++
	}
}

// seedDeltas generates workloads 0 to seeds-1 and replays each at every one
// of cfg's sizes under both schemes (cfg must have its defaults applied).
// Generations and replays share one pool of workers, and at most one
// workload per worker is alive at a time.
func seedDeltas(seeds int, generate func(i int) ([]trace.Record, error), cfg Config) (map[int64]*deltas, error) {
	workers := newPool()
	adhocs, eas := make([][]*sim.Report, seeds), make([][]*sim.Report, seeds)
	err := make(pool, cap(workers)).each(seeds, func(i int) error {
		var (
			records []trace.Record
			err     error
		)
		if workers.do(func() { records, err = generate(i) }); err != nil {
			return err
		}
		suite := newSuite(records, cfg, workers)
		adhocs[i], eas[i], err = suite.runPairs(suite.cells(cfg.Caches, cfg.Sizes))
		return err
	})
	if err != nil {
		return nil, err
	}
	perSize := make(map[int64]*deltas, len(cfg.Sizes))
	for j, size := range cfg.Sizes {
		d := &deltas{}
		for i := range seeds {
			d.add(adhocs[i][j], eas[i][j])
		}
		perSize[size] = d
	}
	return perSize, nil
}

// meanSD formats mean ± sample standard deviation.
func meanSD(xs []float64) string {
	m, sd := meanStddev(xs)
	return fmt.Sprintf("%+.2f +/- %.2f", m, sd)
}

func meanStddev(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
