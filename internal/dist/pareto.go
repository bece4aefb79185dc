package dist

import (
	"fmt"
	"math"
)

// Pareto samples from a bounded Pareto distribution on [Min, Max] with shape
// Alpha. Web document sizes are heavy-tailed; a bounded Pareto with shape
// ~1.1-1.5 reproduces the body-and-tail shape observed in the BU traces
// (Cunha, Bestavros, Crovella 1995) while keeping the mean finite and
// controllable.
type Pareto struct {
	min, max float64
	alpha    float64
	// precomputed for inverse-CDF sampling
	ha, la float64
}

// NewPareto builds a bounded Pareto sampler on [min, max] with shape alpha.
func NewPareto(min, max, alpha float64) (*Pareto, error) {
	if !(min > 0) || !(max > min) {
		return nil, fmt.Errorf("dist: pareto needs 0 < min < max, got [%v, %v]", min, max)
	}
	if !(alpha > 0) {
		return nil, fmt.Errorf("dist: pareto needs alpha > 0, got %v", alpha)
	}
	return &Pareto{
		min:   min,
		max:   max,
		alpha: alpha,
		la:    math.Pow(min, alpha),
		ha:    math.Pow(max, alpha),
	}, nil
}

// Sample draws one value in [Min, Max].
func (p *Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	// Inverse CDF of the bounded Pareto.
	x := math.Pow(-(u*p.ha-u*p.la-p.ha)/(p.ha*p.la), -1/p.alpha)
	return math.Min(math.Max(x, p.min), p.max)
}

// Mean returns the analytic mean of the bounded Pareto.
func (p *Pareto) Mean() float64 {
	a, l, h := p.alpha, p.min, p.max
	if a == 1 {
		return l * h / (h - l) * math.Log(h/l)
	}
	return math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}

// ParetoWithMean searches for the bounded-Pareto minimum that yields the
// requested mean for the given max and alpha. It is used to calibrate the
// synthetic document-size distribution to the paper's 4KB average size.
func ParetoWithMean(mean, max, alpha float64) (*Pareto, error) {
	if !(mean > 0) || !(max > mean) {
		return nil, fmt.Errorf("dist: need 0 < mean < max, got mean=%v max=%v", mean, max)
	}
	lo, hi := 1e-6, mean
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		p, err := NewPareto(mid, max, alpha)
		if err != nil {
			return nil, err
		}
		if p.Mean() < mean {
			lo = mid
		} else {
			hi = mid
		}
	}
	return NewPareto((lo+hi)/2, max, alpha)
}

// Exponential samples from an exponential distribution with the given mean.
// It is used for request interarrival times within user sessions.
type Exponential struct {
	mean float64
}

// NewExponential builds an exponential sampler with the given mean.
func NewExponential(mean float64) (*Exponential, error) {
	if !(mean > 0) {
		return nil, fmt.Errorf("dist: exponential needs mean > 0, got %v", mean)
	}
	return &Exponential{mean: mean}, nil
}

// Sample draws one non-negative value.
func (e *Exponential) Sample(r *RNG) float64 {
	return e.mean * r.ExpFloat64()
}

// Of returns the value Sample returns when its uniform draw, the
// PositiveFloat64 behind r.ExpFloat64, is u: a caller can draw u in one
// place and pay for the logarithm in another.
func (e *Exponential) Of(u float64) float64 {
	return e.mean * -math.Log(u)
}

// Mean returns the configured mean.
func (e *Exponential) Mean() float64 { return e.mean }
