package main

import (
	"math"
	"sort"

	"eacache/internal/obs"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; NaN when sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles over slices are printed beside every per-slice metric, so
// that a reader sees how disturbed the run was.
type quartiles struct{ q1, med, q3 float64 }

func sortedFinite(values []float64) []float64 {
	s := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return s
}

func quartilesOf(values []float64) quartiles {
	s := sortedFinite(values)
	return quartiles{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

func median(values []float64) float64 { return quartilesOf(values).med }

// undisturbed is the estimator of every speed metric: the mean of the
// best eighth of the per-slice values (at least one), the highest when
// higher is better and the lowest otherwise. The sandbox's cores run in
// two modes a quarter apart in speed, seconds at a time, as the sibling
// hyperthread is busy or idle; whatever disturbs the machine only ever
// adds time, so the best slices are the program and the rest is the host.
// README.md has the measurements behind this.
func undisturbed(values []float64, higherIsBetter bool) float64 {
	s := sortedFinite(values)
	if len(s) == 0 {
		return math.NaN()
	}
	k := (len(s) + 7) / 8
	if higherIsBetter {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(k)
}

// latBuckets are the latency histograms' bounds in seconds: 3 % wide,
// from 50 ns to about 10 s. Fixed-size histograms matter: a sample list
// would grow with the request rate and put the benchmark's own memory
// into peak_rss_mb.
var latBuckets = obs.ExpBuckets(50e-9, 1.03, 650)
