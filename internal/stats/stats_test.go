package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStreamBasics(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("empty stream not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic sample is 4; sample variance
	// = 32/7.
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("range [%v, %v]", s.Min(), s.Max())
	}
}

func TestStreamMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Stream
	var sample []float64
	for i := 0; i < 10000; i++ {
		x := rng.NormFloat64()*3 + 10
		s.Add(x)
		sample = append(sample, x)
	}
	var sum float64
	for _, x := range sample {
		sum += x
	}
	mean := sum / float64(len(sample))
	if !almost(s.Mean(), mean, 1e-9) {
		t.Errorf("stream mean %v vs direct %v", s.Mean(), mean)
	}
	var ss float64
	for _, x := range sample {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(sample)-1)
	if !almost(s.Variance(), variance, 1e-6) {
		t.Errorf("stream variance %v vs direct %v", s.Variance(), variance)
	}
}

func TestCI95SingleObservation(t *testing.T) {
	var s Stream
	s.Add(5)
	if !math.IsNaN(s.CI95()) {
		t.Error("CI95 with one observation should be NaN")
	}
}

func TestCI95Coverage(t *testing.T) {
	// Empirical check: the 95% CI of the mean of normal samples should
	// contain the true mean about 95% of the time.
	rng := rand.New(rand.NewSource(2))
	const trials = 2000
	const trueMean = 7.0
	covered := 0
	for trial := 0; trial < trials; trial++ {
		var s Stream
		for i := 0; i < 10; i++ {
			s.Add(rng.NormFloat64()*2 + trueMean)
		}
		if math.Abs(s.Mean()-trueMean) <= s.CI95() {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.92 || frac > 0.98 {
		t.Errorf("CI95 coverage %.3f, want ~0.95", frac)
	}
}

func TestTCritical(t *testing.T) {
	if !almost(tCritical95(1), 12.706, 1e-9) {
		t.Error("df=1 critical value wrong")
	}
	if !almost(tCritical95(1000), 1.96, 1e-9) {
		t.Error("large-df critical value should be ~1.96")
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if !almost(Median([]float64{3, 1, 2}), 2, 1e-12) {
		t.Error("odd median")
	}
	if !almost(Median([]float64{4, 1, 2, 3}), 2.5, 1e-12) {
		t.Error("even median")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
	// Median must not reorder the input.
	in := []float64{5, 1, 3}
	Median(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Error("Median mutated its input")
	}
}

// Property: the mean always lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Stream
		for _, v := range raw {
			s.Add(float64(v))
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is invariant under translation.
func TestVarianceTranslationInvariant(t *testing.T) {
	f := func(raw []int8, shiftRaw int8) bool {
		if len(raw) < 2 {
			return true
		}
		shift := float64(shiftRaw)
		var a, b Stream
		for _, v := range raw {
			a.Add(float64(v))
			b.Add(float64(v) + shift)
		}
		return almost(a.Variance(), b.Variance(), 1e-6*(1+a.Variance()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
