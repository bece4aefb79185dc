package dist

import (
	"math"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		n := r.Intn(13)
		if n < 0 || n >= 13 {
			t.Fatalf("Intn(13) = %d", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(11)
	const buckets, draws = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := draws / buckets
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", b, c, want)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	s := r.Split()
	// The split stream must not simply mirror the parent.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream matched parent %d/100 times", same)
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(3)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, x := range xs {
		if x < 0 || x >= len(xs) || seen[x] {
			t.Fatalf("not a permutation: %v", xs)
		}
		seen[x] = true
	}
}

func TestRNGExpFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 = %v < 0", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

// overInt32 is one past math.MaxInt32. A variable, so that converting it to
// an int compiles on a 32-bit platform.
var overInt32 int64 = math.MaxInt32 + 1

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("NewZipf(0, _) accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Fatal("NewZipf(_, -1) accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Fatal("NewZipf(_, NaN) accepted")
	}
	// The guide table holds ranks as int32. No int exceeds MaxInt32 on a
	// 32-bit platform.
	if strconv.IntSize == 64 {
		if _, err := NewZipf(int(overInt32), 1); err == nil {
			t.Fatal("NewZipf(MaxInt32+1, _) accepted")
		}
	}
}

// TestZipfRankMatchesInverseCDF holds the guide-table lookup to the plain
// inverse CDF, a binary search over every rank, on random draws and on the
// values where an off-by-one would show: the cell edges k/m, each CDF value,
// the float just below it, and the largest float64 below 1.
func TestZipfRankMatchesInverseCDF(t *testing.T) {
	r := NewRNG(17)
	for _, n := range []int{1, 2, 3, 7, 1000, 46830} {
		for _, alpha := range []float64{0, 0.1, 0.75, 1, 3, 400} {
			z, err := NewZipf(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			check := func(u float64) {
				if got, want := z.rank(u), sort.SearchFloat64s(z.cdf, u); got != want {
					t.Fatalf("n=%d alpha=%v u=%v: rank %d, inverse CDF %d", n, alpha, u, got, want)
				}
			}
			for i := 0; i < 100000; i++ {
				check(r.Float64())
			}
			m := len(z.guide) - 1
			for k := 0; k < m; k++ {
				check(float64(k) / float64(m))
			}
			for _, c := range z.cdf {
				if c < 1 {
					check(c)
				}
				check(math.Nextafter(c, 0))
			}
			check(math.Nextafter(1, 0))
		}
	}
}

func TestZipfRankOrdering(t *testing.T) {
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(1)
	counts := make([]int, 100)
	for i := 0; i < 200000; i++ {
		counts[z.Rank(r)]++
	}
	// Popularity must decrease (allowing sampling noise) along ranks.
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Fatalf("rank ordering violated: c0=%d c10=%d c90=%d", counts[0], counts[10], counts[90])
	}
	// Empirical mass of rank 0 should be close to analytic.
	got := float64(counts[0]) / 200000
	want := z.Prob(0)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("rank-0 mass = %v, want ~%v", got, want)
	}
}

func TestZipfProbsSumToOne(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 1, 2} {
		z, err := NewZipf(50, alpha)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := 0; i < z.N(); i++ {
			sum += z.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("alpha=%v: probs sum to %v", alpha, sum)
		}
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-9 {
			t.Fatalf("Prob(%d) = %v, want 0.1", i, z.Prob(i))
		}
	}
}

func TestQuickZipfRankInRange(t *testing.T) {
	z, err := NewZipf(37, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			rank := z.Rank(r)
			if rank < 0 || rank >= 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParetoValidation(t *testing.T) {
	if _, err := NewPareto(0, 10, 1); err == nil {
		t.Fatal("min=0 accepted")
	}
	if _, err := NewPareto(10, 5, 1); err == nil {
		t.Fatal("max<min accepted")
	}
	if _, err := NewPareto(1, 10, 0); err == nil {
		t.Fatal("alpha=0 accepted")
	}
}

func TestParetoBounds(t *testing.T) {
	p, err := NewPareto(100, 10000, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(2)
	for i := 0; i < 50000; i++ {
		v := p.Sample(r)
		if v < 100 || v > 10000 {
			t.Fatalf("sample %v out of [100, 10000]", v)
		}
	}
}

func TestParetoEmpiricalMeanMatchesAnalytic(t *testing.T) {
	p, err := NewPareto(1000, 1<<20, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(4)
	sum := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		sum += p.Sample(r)
	}
	got := sum / n
	want := p.Mean()
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical mean %v deviates >5%% from analytic %v", got, want)
	}
}

func TestParetoWithMean(t *testing.T) {
	for _, mean := range []float64{2000, 4096, 50000} {
		p, err := ParetoWithMean(mean, 8<<20, 1.3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Mean()-mean)/mean > 0.01 {
			t.Fatalf("calibrated mean %v, want %v", p.Mean(), mean)
		}
	}
	if _, err := ParetoWithMean(100, 50, 1.3); err == nil {
		t.Fatal("mean > max accepted")
	}
}

func TestExponential(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Fatal("mean=0 accepted")
	}
	e, err := NewExponential(25)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 25 {
		t.Fatalf("Mean = %v", e.Mean())
	}
	r := NewRNG(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := e.Sample(r)
		if v < 0 {
			t.Fatalf("negative sample %v", v)
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-25)/25 > 0.03 {
		t.Fatalf("empirical mean %v, want ~25", got)
	}
	// Of of the PositiveFloat64 draw is, bit for bit, what Sample returns
	// from the same stream.
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 10000; i++ {
		if want, got := e.Sample(a), e.Of(b.PositiveFloat64()); got != want {
			t.Fatalf("draw %d: Of = %v, Sample = %v", i, got, want)
		}
	}
}
