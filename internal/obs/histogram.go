package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// ExpBuckets returns count upper bounds growing geometrically from start by
// factor — the HDR-style log bucketing the latency histograms use: constant
// relative error (factor-1) across the whole dynamic range, where linear
// buckets would need thousands of slots to cover 100µs..minutes.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("obs: bad ExpBuckets(%v, %v, %d)", start, factor, count))
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets covers 100µs to ~105s at 2x resolution — wide
// enough for a local hash lookup and a stalled origin fetch on one axis.
var DefaultLatencyBuckets = ExpBuckets(100e-6, 2, 21)

// Histogram is a fixed-bucket cumulative histogram safe for concurrent
// observation and scraping: one atomic add per Observe, no locks. Bounds
// are upper bucket edges in ascending order; an implicit +Inf bucket
// catches overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	// sum accumulates in nanounits (1e-9 of the observed unit) so the
	// exposition _sum stays a plain atomic add instead of a CAS-float loop.
	sumNano atomic.Int64
}

// NewHistogram builds a histogram over bounds (ascending, deduplicated);
// nil selects DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	cp := append([]float64(nil), bounds...)
	sort.Float64s(cp)
	for i := 1; i < len(cp); i++ {
		if cp[i] == cp[i-1] {
			panic(fmt.Sprintf("obs: duplicate histogram bound %v", cp[i]))
		}
	}
	return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
}

// Observe records one value in the histogram's unit (seconds for latency).
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sumNano.Add(int64(v * 1e9))
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return float64(h.sumNano.Load()) / 1e9 }

// snapshot copies the per-bucket counts (len(bounds)+1).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket where the cumulative count crosses q. Values in the
// +Inf bucket report the largest finite bound; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := h.snapshot()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum)+float64(c) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: no upper edge to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			within := (rank - float64(cum)) / float64(c)
			if within < 0 {
				within = 0
			}
			return lo + (hi-lo)*within
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// writePrometheus renders the cumulative _bucket/_sum/_count series,
// splicing le into the instrument's label set.
func (h *Histogram) writePrometheus(w io.Writer, name, key string) error {
	counts := h.snapshot()
	var cum int64
	for i, bound := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(key, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, spliceLabel(key, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, key, h.Count())
	return err
}

// spliceLabel appends one label pair to a canonical label string.
func spliceLabel(key, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if key == "" {
		return "{" + pair + "}"
	}
	return strings.TrimSuffix(key, "}") + "," + pair + "}"
}
