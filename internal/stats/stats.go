// Package stats provides the summary statistics the experiment harness
// uses when averaging replicated runs: streaming mean/variance (Welford),
// Student-t confidence intervals, and simple series utilities.
package stats

import (
	"math"
	"sort"
)

// Stream accumulates a sample one value at a time using Welford's
// algorithm, which stays numerically stable for long runs.
type Stream struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() uint64 { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Min and Max return the observed extremes (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }
func (s *Stream) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Stream) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// tTable holds two-sided 95% Student-t critical values by degrees of
// freedom; beyond the table the normal approximation applies.
var tTable = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
}

// tCritical95 returns the two-sided 95% critical value for the given
// degrees of freedom.
func tCritical95(df uint64) float64 {
	if df == 0 {
		return math.NaN()
	}
	if df < uint64(len(tTable)) {
		return tTable[df]
	}
	return 1.96
}

// CI95 returns the half-width of the 95% confidence interval of the mean.
// It is NaN for fewer than two observations.
func (s *Stream) CI95() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return tCritical95(s.n-1) * s.StdErr()
}

// Summary is a frozen view of a stream.
type Summary struct {
	N      uint64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize freezes the stream.
func (s *Stream) Summarize() Summary {
	return Summary{
		N: s.n, Mean: s.mean, StdDev: s.StdDev(),
		Min: s.min, Max: s.max, CI95: s.CI95(),
	}
}

// Median returns the sample median (NaN for an empty sample). The input
// is not modified.
func Median(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	cp := make([]float64, len(sample))
	copy(cp, sample)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}
