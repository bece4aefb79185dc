package experiments

import (
	"math"
	"testing"

	"eacache/internal/trace"
)

// claimSeeds generates the seeded workloads a claim is checked over: 5
// under -short, 10 otherwise, at 5 % of the BU trace, seeds 1 to n.
func claimSeeds(t *testing.T) ([][]trace.Record, Config) {
	t.Helper()
	const scale = 0.05
	n := 10
	if testing.Short() {
		n = 5
	}
	gen := trace.BULike().Scaled(scale)
	traces := make([][]trace.Record, n)
	for i := range traces {
		gen.Seed = uint64(1 + i)
		records, err := trace.Generate(gen)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = records
	}
	return traces, Config{Sizes: ScaledSizes(scale)}.withDefaults()
}

// TestClaimEAHitRateAtLeastAdHoc checks the claims of Fig. 1, 2 and 3 over
// seeded workloads, each as a two-standard-error bound on the mean
// EA-minus-ad-hoc delta at the sizes it covers. A size where no seed's
// ad-hoc group evicts is saturated: both schemes sit at the trace's
// ceiling, and EA's extra remote hits only cost it latency there.
//   - hit rate (Fig. 1) and byte hit rate (Fig. 2): mean - 2 se >= 0 at
//     every unsaturated size;
//   - latency (Fig. 3): mean + 2 se < 0 at the smallest size, where EA's
//     extra hits pay for its remote fetches, and mean - 2 se > 0 at the
//     saturated size, where they cannot.
func TestClaimEAHitRateAtLeastAdHoc(t *testing.T) {
	traces, cfg := claimSeeds(t)
	perSize, err := seedDeltas(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	saturated := func(size int64) bool { return perSize[size].saturated == len(traces) }
	hit := func(d *deltas) []float64 { return d.hit }
	byteHit := func(d *deltas) []float64 { return d.byteHit }
	latency := func(d *deltas) []float64 { return d.latency }
	for _, claim := range []struct {
		name   string
		series func(*deltas) []float64
		at     func(size int64) bool
		holds  func(mean, se float64) bool
		bound  string
	}{
		{"hit rate (pp)", hit, func(s int64) bool { return !saturated(s) },
			func(m, se float64) bool { return m-2*se >= 0 }, "mean - 2 se >= 0"},
		{"byte hit rate (pp)", byteHit, func(s int64) bool { return !saturated(s) },
			func(m, se float64) bool { return m-2*se >= 0 }, "mean - 2 se >= 0"},
		{"latency at the smallest size (ms)", latency, func(s int64) bool { return s == cfg.Sizes[0] },
			func(m, se float64) bool { return m+2*se < 0 }, "mean + 2 se < 0"},
		{"latency when saturated (ms)", latency, saturated,
			func(m, se float64) bool { return m-2*se > 0 }, "mean - 2 se > 0"},
	} {
		checked := 0
		for _, size := range cfg.Sizes {
			if !claim.at(size) {
				continue
			}
			checked++
			xs := claim.series(perSize[size])
			mean, sd := meanStddev(xs)
			se := sd / math.Sqrt(float64(len(xs)))
			t.Logf("%s at %d bytes: delta %+.3f, se %.3f, saturated on %d of %d seeds",
				claim.name, size, mean, se, perSize[size].saturated, len(traces))
			if !claim.holds(mean, se) {
				t.Errorf("%s at %d bytes: %s fails: mean delta %+.3f, 2 se %.3f over %d seeds",
					claim.name, size, claim.bound, mean, 2*se, len(traces))
			}
		}
		if checked == 0 {
			t.Errorf("%s: no size qualifies, the claim was not tested", claim.name)
		}
	}
}
