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
// a single-trace study (the paper included) cannot give. Each element of
// traces is one workload; the suite configuration applies to all of them.
func MultiSeed(traces [][]trace.Record, cfg Config) (*Table, error) {
	if len(traces) < 2 {
		return nil, fmt.Errorf("experiments: MultiSeed needs at least 2 workloads, got %d", len(traces))
	}
	cfg = cfg.withDefaults()

	t := &Table{
		ID:    "multiseed",
		Title: fmt.Sprintf("EA - adhoc across %d workload seeds (mean +/- sd)", len(traces)),
		Columns: []string{"aggregate",
			"hit delta (pp)", "byte delta (pp)", "latency delta (ms)"},
		Notes: []string{
			"positive hit/byte deltas and negative latency deltas favour the EA scheme",
		},
	}

	perSize, err := seedDeltas(traces, cfg)
	if err != nil {
		return nil, err
	}

	for _, size := range cfg.Sizes {
		d := perSize[size]
		label := sim.FormatBytes(size)
		if d.saturated == len(traces) {
			label += " (saturated)"
		}
		t.AddRow(label, meanSD(d.hit), meanSD(d.byteHit), meanSD(d.latency))
	}
	return t, nil
}

// deltas are one size's EA-minus-ad-hoc differences, one per workload:
// hit and byte hit rates in percentage points, estimated latency in ms.
// saturated counts the workloads whose ad-hoc group evicted nothing at
// that size, so both schemes sit at the trace's hit-rate ceiling.
type deltas struct {
	hit, byteHit, latency []float64
	saturated             int
}

// seedDeltas replays every workload at each of cfg's sizes under both
// schemes (cfg must have its defaults applied).
func seedDeltas(traces [][]trace.Record, cfg Config) (map[int64]*deltas, error) {
	perSize := make(map[int64]*deltas, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		perSize[size] = &deltas{}
	}
	for _, records := range traces {
		suite := NewSuite(records, cfg)
		for _, size := range cfg.Sizes {
			adhoc, ea, err := suite.runPair(suite.cell(cfg.Caches, size))
			if err != nil {
				return nil, err
			}
			d := perSize[size]
			d.hit = append(d.hit, 100*(ea.Group.HitRate()-adhoc.Group.HitRate()))
			d.byteHit = append(d.byteHit, 100*(ea.Group.ByteHitRate()-adhoc.Group.ByteHitRate()))
			d.latency = append(d.latency,
				float64((ea.EstimatedLatency-adhoc.EstimatedLatency)/time.Millisecond))
			var evictions int64
			for _, p := range adhoc.PerProxy {
				evictions += p.Evictions
			}
			if evictions == 0 {
				d.saturated++
			}
		}
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
