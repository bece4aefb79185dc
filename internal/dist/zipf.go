package dist

import (
	"fmt"
	"math"
	"math/bits"
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
// library's rejection sampler does not handle). A guide table (the indexed
// search of Chen & Asau, 1974) narrows each inversion to the few ranks
// whose CDF crosses the draw's 1/m-wide cell, so a draw costs O(1) on
// average rather than a binary search over all N ranks.
type Zipf struct {
	cdf []float64
	// guide[k] is the first rank whose CDF is >= k/m, for k in [0, m],
	// where m = len(guide)-1 is a power of two >= N.
	guide []int32
}

// NewZipf builds a sampler over ranks 1..n with exponent alpha.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("dist: zipf needs n in [1, %d], got %d", math.MaxInt32, n)
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

	m := 1 << bits.Len(uint(n-1))
	guide := make([]int32, m+1)
	for k, i := 0, 0; k <= m; k++ {
		for cdf[i] < float64(k)/float64(m) {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide}, nil
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank draws a rank in [0, N). Rank 0 is the most popular item.
func (z *Zipf) Rank(r *RNG) int {
	return z.rank(r.Float64())
}

// rank returns the first rank whose CDF is >= u, for u in [0, 1): exactly
// what sort.SearchFloat64s(z.cdf, u) returns. m is a power of two, so u*m
// is exact and k/m <= u < (k+1)/m; the answer therefore lies in
// [guide[k], guide[k+1]], and only that stretch is searched.
func (z *Zipf) rank(u float64) int {
	k := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[k]), int(z.guide[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of rank i (0-based).
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
