package dist

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks 1..N with probability proportional to 1/rank^alpha.
//
// Web reference streams are famously Zipf-like (Breslau et al. 1999 measured
// alpha between 0.64 and 0.83 for proxy traces); the synthetic workload
// generator uses this to reproduce the popularity skew of the Boston
// University traces the paper evaluates on.
//
// Sampling uses the inverse-CDF method over the exact harmonic weights, so
// any alpha >= 0 is supported (including alpha <= 1, which the standard
// library's rejection sampler does not handle).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over ranks 1..n with exponent alpha.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: zipf needs n > 0, got %d", n)
	}
	if alpha < 0 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("dist: zipf needs alpha >= 0, got %v", alpha)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}, nil
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank draws a rank in [0, N). Rank 0 is the most popular item.
func (z *Zipf) Rank(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Prob returns the probability mass of rank i (0-based).
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
