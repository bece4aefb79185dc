// Package model provides an analytical LRU cache model — Che's
// approximation under the independent reference model — used to
// cross-validate the trace-driven simulator: for a single LRU cache fed an
// IRM stream with known popularities, the analytic hit rate and the
// simulated hit rate must agree closely. The paper's own (unpublished)
// technical-report analysis plays the same role for its experiments.
package model

import (
	"fmt"
	"math"
)

// CheLRU computes the expected hit rate of a single LRU cache holding
// `capacity` equally sized documents, fed an independent reference stream
// with the given popularity distribution (probabilities, need not be
// normalised).
//
// Che's approximation: there is a characteristic time Tc such that document
// i is resident iff it was referenced within the last Tc requests; Tc
// solves sum_i (1 - exp(-p_i * Tc)) = capacity, and the hit rate is
// sum_i p_i * (1 - exp(-p_i * Tc)).
func CheLRU(popularities []float64, capacity int) (float64, error) {
	if capacity <= 0 {
		return 0, fmt.Errorf("model: capacity must be positive, got %d", capacity)
	}
	if len(popularities) == 0 {
		return 0, fmt.Errorf("model: empty popularity distribution")
	}
	var total float64
	for i, p := range popularities {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return 0, fmt.Errorf("model: bad popularity %v at %d", p, i)
		}
		total += p
	}
	if total <= 0 {
		return 0, fmt.Errorf("model: zero total popularity")
	}
	if capacity >= len(popularities) {
		return 1, nil // everything fits; every re-reference hits
	}

	probs := make([]float64, len(popularities))
	for i, p := range popularities {
		probs[i] = p / total
	}

	tc, err := characteristicTime(probs, float64(capacity))
	if err != nil {
		return 0, err
	}
	var hit float64
	for _, p := range probs {
		hit += p * (1 - math.Exp(-p*tc))
	}
	return hit, nil
}

// characteristicTime solves sum_i (1 - exp(-p_i*t)) = capacity for t by
// bisection; the left side is monotonically increasing in t.
func characteristicTime(probs []float64, capacity float64) (float64, error) {
	occupancy := func(t float64) float64 {
		var sum float64
		for _, p := range probs {
			sum += 1 - math.Exp(-p*t)
		}
		return sum
	}
	lo, hi := 0.0, 1.0
	for occupancy(hi) < capacity {
		hi *= 2
		if hi > 1e18 {
			return 0, fmt.Errorf("model: characteristic time diverged")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if occupancy(mid) < capacity {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ZipfPopularities returns the unnormalised Zipf masses 1/rank^alpha for n
// ranks, matching the workload generator's body distribution.
func ZipfPopularities(n int, alpha float64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("model: n must be positive, got %d", n)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("model: alpha must be >= 0, got %v", alpha)
	}
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 1 / math.Pow(float64(i+1), alpha)
	}
	return probs, nil
}
