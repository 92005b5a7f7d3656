package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Count != 3 || s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 2 {
		t.Errorf("P50 = %v, want 2", s.P50)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestPercentileEdges(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 5 {
		t.Error("extreme percentiles wrong")
	}
	if Percentile(xs, 0.99) != 5 {
		t.Errorf("P99 = %v, want 5", Percentile(xs, 0.99))
	}
	if Percentile(xs, 0.5) != 3 {
		t.Errorf("P50 = %v, want 3", Percentile(xs, 0.5))
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestFractionAtMost(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.5, 0.9}
	fr := FractionAtMost(xs, []float64{0, 0.1, 0.5, 1})
	want := []float64{0, 0.25, 0.75, 1}
	for i := range want {
		if fr[i] != want[i] {
			t.Errorf("FractionAtMost[%d] = %v, want %v", i, fr[i], want[i])
		}
	}
	if got := FractionAtMost(nil, []float64{1}); got[0] != 0 {
		t.Error("empty sample should give zero fractions")
	}
}

func TestFormatFraction(t *testing.T) {
	if got := FormatFraction(0.257); got != " 25.7%" {
		t.Errorf("FormatFraction = %q", got)
	}
}

// TestQuickCDFMonotone: the empirical CDF is monotone in the threshold
// and bounded in [0, 1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []uint8, thresholds []uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 16
		}
		ths := make([]float64, len(thresholds))
		for i, r := range thresholds {
			ths[i] = float64(r) / 16
		}
		sort.Float64s(ths)
		fr := FractionAtMost(xs, ths)
		prev := 0.0
		for _, v := range fr {
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPercentileWithinRange: percentiles are always sample members
// between min and max.
func TestQuickPercentileWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(20) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		s := Summarize(xs)
		for _, p := range []float64{s.P10, s.P50, s.P90, s.P99} {
			if p < s.Min || p > s.Max {
				t.Fatalf("percentile %v outside [%v, %v]", p, s.Min, s.Max)
			}
			found := false
			for _, x := range xs {
				if x == p {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("percentile %v is not a sample member", p)
			}
		}
	}
}

// TestMeanCI95: the half-width is t·s/√n with t the two-sided 95%
// Student-t quantile for n−1 degrees of freedom — the table's value up
// to 30 degrees, within 0.001 of the true quantile beyond, near the
// normal 1.96 at n = 1,000 — and 0 below two samples.
func TestMeanCI95(t *testing.T) {
	if m, hw := MeanCI95(nil); m != 0 || hw != 0 {
		t.Errorf("empty sample: %v ± %v", m, hw)
	}
	if m, hw := MeanCI95([]float64{3}); m != 3 || hw != 0 {
		t.Errorf("one sample: %v ± %v, want 3 ± 0", m, hw)
	}
	if m, hw := MeanCI95([]float64{0, 2}); m != 1 || math.Abs(hw-12.706) > 1e-9 {
		t.Errorf("{0, 2}: %v ± %v, want 1 ± 12.706 (s = √2, n = 2)", m, hw)
	}
	for _, c := range []struct {
		n    int
		t, e float64 // the true quantile t(0.975, n−1) and the tolerance
	}{
		{2, 12.706205, 0.0005},
		{5, 2.776445, 0.0005},
		{10, 2.262157, 0.0005},
		{31, 2.042272, 0.0005},
		{1000, 1.962341, 0.001},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i%7) * 1.5
		}
		mean, hw := MeanCI95(xs)
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		se := math.Sqrt(varSum/float64(c.n-1)) / math.Sqrt(float64(c.n))
		if got := hw / se; math.Abs(got-c.t) > c.e {
			t.Errorf("n = %d: half-width is %.6f standard errors, want t(0.975, %d) = %.6f", c.n, got, c.n-1, c.t)
		}
	}
}
