// Package stats provides the small set of descriptive statistics used by
// the simulation experiments: summaries (mean, min, percentiles) and
// empirical CDF evaluation over fixed thresholds. Percentiles use the
// nearest-rank-above convention, matching the reporting style of the
// networking evaluations the paper cites.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	Count int
	Mean  float64
	Min   float64
	Max   float64
	P10   float64
	P50   float64
	P90   float64
	P99   float64
}

// Summarize computes a Summary. An empty sample yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return Summary{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P10:   Percentile(sorted, 0.10),
		P50:   Percentile(sorted, 0.50),
		P90:   Percentile(sorted, 0.90),
		P99:   Percentile(sorted, 0.99),
	}
}

// Percentile returns the p-quantile (p ∈ [0, 1]) of a sorted sample by
// the nearest-rank-above rule, and 0 for an empty sample. It does not
// check the order: an unsorted input gives a wrong result, not a panic,
// so callers sort first (Summarize does).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p * float64(len(sorted)-1)))
	return sorted[idx]
}

// FractionAtMost returns, for each threshold, the fraction of the sample
// that is ≤ the threshold: the empirical CDF evaluated at the
// thresholds.
func FractionAtMost(xs []float64, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, th := range thresholds {
		// First index with value > th.
		hi := sort.SearchFloat64s(sorted, math.Nextafter(th, math.Inf(1)))
		out[i] = float64(hi) / float64(len(sorted))
	}
	return out
}

// FormatFraction renders a CDF fraction as a fixed-width percentage.
func FormatFraction(f float64) string {
	return fmt.Sprintf("%5.1f%%", 100*f)
}

// MeanCI95 returns the sample mean and the half-width of its 95%
// confidence interval, t·s/√n with s the sample standard deviation
// (Bessel-corrected) and t the two-sided 95% Student-t quantile for n−1
// degrees of freedom. Samples of size < 2 yield a zero half-width.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	varSum := 0.0
	for _, x := range xs {
		d := x - mean
		varSum += d * d
	}
	s := math.Sqrt(varSum / float64(len(xs)-1))
	return mean, studentT95(len(xs)-1) * s / math.Sqrt(float64(len(xs)))
}

// t95 holds the two-sided 95% Student-t quantiles t(0.975, ν) for
// ν = 1…30 degrees of freedom, to three decimals.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// studentT95 returns the two-sided 95% Student-t quantile for df ≥ 1:
// the table up to 30, and beyond it two Cornish–Fisher terms around the
// normal quantile z, within 1e-4 of the true quantile and tending to z.
func studentT95(df int) float64 {
	if df <= len(t95) {
		return t95[df-1]
	}
	const z = 1.959963984540054
	v := float64(df)
	return z + (z*z*z+z)/(4*v) + (5*z*z*z*z*z+16*z*z*z+3*z)/(96*v*v)
}
