package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic dataset is 32/7.
	if got, want := Variance(xs), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	// Constant data: CV = 0.
	if got := CoefficientOfVariation([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("CV of constants = %v", got)
	}
	if !math.IsNaN(CoefficientOfVariation([]float64{-1, 1})) {
		t.Error("CV with zero mean should be NaN")
	}
	// Star graph degrees (n=5): [4,1,1,1,1], mean 1.6, sd ~1.342.
	got := CoefficientOfVariation([]float64{4, 1, 1, 1, 1})
	want := math.Sqrt(Variance([]float64{4, 1, 1, 1, 1})) / 1.6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CV = %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of empty should be NaN")
	}
	// Must not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 0.5)
	if ys[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 10
	}
	ci := BootstrapMeanCI(xs, 0.95, 2000, rng)
	if ci.Lo > ci.Mean || ci.Hi < ci.Mean {
		t.Fatalf("CI does not bracket mean: %v", ci)
	}
	if ci.Lo > 10 || ci.Hi < 10 {
		t.Errorf("CI %v should contain the true mean 10", ci)
	}
	// Roughly 2*1.96*sigma/sqrt(n) wide.
	approx := 2 * 1.96 * 2 / math.Sqrt(200)
	if ci.Width() < approx/2 || ci.Width() > approx*2 {
		t.Errorf("CI width %v implausible (expect ~%v)", ci.Width(), approx)
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	ci := BootstrapMeanCI([]float64{5}, 0.95, 100, rand.New(rand.NewSource(1)))
	if ci.Mean != 5 || ci.Lo != 5 || ci.Hi != 5 {
		t.Errorf("degenerate CI = %v", ci)
	}
}

func TestBootstrapShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := make([]float64, 20)
	big := make([]float64, 500)
	for i := range small {
		small[i] = rng.NormFloat64()
	}
	for i := range big {
		big[i] = rng.NormFloat64()
	}
	ciSmall := BootstrapMeanCI(small, 0.95, 1000, rng)
	ciBig := BootstrapMeanCI(big, 0.95, 1000, rng)
	if ciBig.Width() >= ciSmall.Width() {
		t.Errorf("CI should shrink with n: big %v, small %v", ciBig.Width(), ciSmall.Width())
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 100000
	var sum int
	for i := 0; i < trials; i++ {
		sum += Geometric(0.5, rng)
	}
	mean := float64(sum) / trials
	// Mean of Geometric(0.5) counting failures is (1-p)/p = 1.
	if math.Abs(mean-1) > 0.03 {
		t.Errorf("Geometric(0.5) mean = %v, want ~1", mean)
	}
}

func TestGeometricEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if Geometric(1, rng) != 0 {
		t.Error("Geometric(1) must be 0")
	}
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) should panic", p)
				}
			}()
			Geometric(p, rng)
		}()
	}
}

func TestGeometricNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return Geometric(0.3, r) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestWeightedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[WeightedIndex(weights, rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

// TestWeightedIndexTotalMatches: drawing with a precomputed WeightTotal
// consumes the same draws and returns the same indices as WeightedIndex.
func TestWeightedIndexTotalMatches(t *testing.T) {
	weights := []float64{0.3, 1e-9, 0, 2.5, 1.0 / 3, 7}
	total := WeightTotal(weights)
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		if x, y := WeightedIndex(weights, a), WeightedIndexTotal(weights, total, b); x != y {
			t.Fatalf("draw %d: WeightedIndex %d, WeightedIndexTotal %d", i, x, y)
		}
	}
}

func TestWeightedIndexPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ws := range [][]float64{{0, 0}, {-1, 2}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedIndex(%v) should panic", ws)
				}
			}()
			WeightedIndex(ws, rng)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightTotal(%v) should panic", ws)
				}
			}()
			WeightTotal(ws)
		}()
	}
}

func TestECDF(t *testing.T) {
	pts, cdf := ECDF([]float64{3, 1, 2})
	if len(pts) != 3 || pts[0] != 1 || pts[2] != 3 {
		t.Fatalf("ECDF points = %v", pts)
	}
	if cdf[0] != 1.0/3 || cdf[2] != 1 {
		t.Fatalf("ECDF values = %v", cdf)
	}
	if p, c := ECDF(nil); p != nil || c != nil {
		t.Error("ECDF(nil) should be nil, nil")
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{0.5, 1.0, 1.5, 2.0}
	if got := FractionAbove(xs, 1.0); got != 0.5 {
		t.Errorf("FractionAbove = %v, want 0.5", got)
	}
	if !math.IsNaN(FractionAbove(nil, 0)) {
		t.Error("FractionAbove(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(empty) should panic")
		}
	}()
	MinMax(nil)
}

func TestCIString(t *testing.T) {
	s := CI{Mean: 1.5, Lo: 1, Hi: 2}.String()
	if s != "1.5 [1, 2]" {
		t.Errorf("CI.String = %q", s)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, mean := range []float64{0.5, 3, 12} {
		const trials = 60000
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			v := float64(Poisson(mean, rng))
			sum += v
			sumSq += v * v
		}
		m := sum / trials
		variance := sumSq/trials - m*m
		if math.Abs(m-mean) > mean*0.05+0.02 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean) > mean*0.1+0.05 {
			t.Errorf("Poisson(%v) variance = %v, want ~mean", mean, variance)
		}
	}
}

func TestPoissonLargeMeanApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const mean = 100.0
	var sum float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += float64(Poisson(mean, rng))
	}
	if m := sum / trials; math.Abs(m-mean) > 2 {
		t.Errorf("Poisson(100) mean = %v", m)
	}
}

func TestPoissonEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	if Poisson(0, rng) != 0 {
		t.Error("Poisson(0) must be 0")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poisson(%v) should panic", bad)
				}
			}()
			Poisson(bad, rng)
		}()
	}
}
