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

// TestClaimEAHitRateAtLeastAdHoc checks Fig. 1's claim over seeded
// workloads: at every size where the ad-hoc group evicts on some seed,
// EA's hit rate is at least ad-hoc's, as a one-sided bound on the mean
// delta — mean - 2 standard errors >= 0. A size where no seed's ad-hoc
// group evicts is saturated: both schemes sit at the trace's ceiling.
func TestClaimEAHitRateAtLeastAdHoc(t *testing.T) {
	traces, cfg := claimSeeds(t)
	perSize, err := seedDeltas(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unsaturated := 0
	for _, size := range cfg.Sizes {
		d := perSize[size]
		mean, sd := meanStddev(d.hit)
		se := sd / math.Sqrt(float64(len(d.hit)))
		t.Logf("%d bytes: hit delta %+.3f pp, se %.3f, saturated on %d of %d seeds", size, mean, se, d.saturated, len(traces))
		if d.saturated == len(traces) {
			continue
		}
		unsaturated++
		if mean-2*se < 0 {
			t.Errorf("%d bytes: EA's hit rate is below ad-hoc's: mean delta %+.3f pp, 2 se %.3f pp over %d seeds", size, mean, 2*se, len(traces))
		}
	}
	if unsaturated == 0 {
		t.Fatal("every size saturated: the claim was not tested")
	}
}
