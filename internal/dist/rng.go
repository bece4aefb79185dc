// Package dist provides the deterministic random samplers that drive the
// synthetic workload generator: a splittable PCG-style generator and Zipf,
// bounded-Pareto and exponential distributions.
//
// Everything here is deterministic for a given seed so that simulations and
// experiments are exactly reproducible.
package dist

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** over a SplitMix64-seeded state). It is not safe for
// concurrent use; use Split to derive independent streams per goroutine.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	return &r
}

// Split derives an independent generator from r without disturbing r's
// future output stream beyond consuming one value.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17

	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)

	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1: the
// negative logarithm of a PositiveFloat64 draw.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(r.PositiveFloat64())
}

// PositiveFloat64 returns a uniformly distributed float64 in (0, 1),
// drawing again on the zero Float64 can return.
func (r *RNG) PositiveFloat64() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

func splitmix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}
