package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries: every bucket's inclusive upper bound maps back
// into the bucket, and the bound right above it maps into the next one
// — the two functions agree on every boundary of the int64 range.
func TestBucketBoundaries(t *testing.T) {
	for idx := 0; idx < numHistBuckets-2; idx++ {
		if idx == 1 {
			// The upper half of octave 0 ([1.5, 2)) holds no integer; its
			// bound collides with bucket 0's and no observation reaches it.
			continue
		}
		u := bucketUpper(idx)
		if got := bucketIndex(u); got != idx {
			t.Fatalf("bucketIndex(bucketUpper(%d)=%d) = %d", idx, u, got)
		}
		if u < math.MaxInt64 {
			next := idx + 1
			if idx == 0 {
				next = 2 // 2 opens octave 1 directly; bucket 1 is the degenerate gap
			}
			if got := bucketIndex(u + 1); got != next {
				t.Fatalf("bucketIndex(%d) = %d, want %d", u+1, got, next)
			}
		}
	}
	// Non-positive and unit observations share bucket 0.
	for _, v := range []int64{-5, 0, 1} {
		if got := bucketIndex(v); got != 0 {
			t.Errorf("bucketIndex(%d) = %d, want 0", v, got)
		}
	}
	if got := bucketIndex(math.MaxInt64); got >= numHistBuckets {
		t.Errorf("bucketIndex(MaxInt64) = %d overflows the %d buckets", got, numHistBuckets)
	}
}

// TestHistogramQuantileErrorBound is the property test of the
// documented estimation bound: for random samples, every estimated
// quantile e of a true (sorted-reference) value v satisfies
// v ≤ e < 1.5·v, and the exact aggregates match.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		h := &Histogram{}
		sample := make([]int64, n)
		var sum int64
		for i := range sample {
			// Mix magnitudes: sub-µs to tens of ms.
			v := int64(1 + rng.Intn(1<<(1+rng.Intn(25))))
			sample[i] = v
			sum += v
			h.Observe(time.Duration(v))
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			truth := sample[rank-1]
			est := h.Quantile(q)
			if est < truth || float64(est) >= 1.5*float64(truth) {
				t.Fatalf("trial %d n=%d q=%v: estimate %d outside [v, 1.5v) for true %d",
					trial, n, q, est, truth)
			}
		}
		st := h.Stats()
		if st.Count != int64(n) || st.SumNs != sum || st.MaxNs != sample[n-1] {
			t.Fatalf("stats %+v, want count=%d sum=%d max=%d", st, n, sum, sample[n-1])
		}
	}
}

// TestHistogramConcurrent race-hammers one histogram from many
// goroutines and asserts no observation was lost: the total count, sum
// and max are conserved, and the bucket counts sum to the total.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(1 + rng.Intn(1<<20)))
				if i%1000 == 0 {
					_ = h.Stats()
					_, _ = h.CumulativeBuckets()
				}
			}
		}(g)
	}
	wg.Wait()
	st := h.Stats()
	if st.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", st.Count, goroutines*perG)
	}
	buckets, total := h.CumulativeBuckets()
	if total != goroutines*perG {
		t.Errorf("bucket total = %d, want %d", total, goroutines*perG)
	}
	if len(buckets) == 0 || buckets[len(buckets)-1].Count != total {
		t.Errorf("cumulative buckets %v do not end at the total %d", buckets, total)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Count < buckets[i-1].Count || buckets[i].UpperNs <= buckets[i-1].UpperNs {
			t.Fatalf("bucket %d (%+v) not monotone over %+v", i, buckets[i], buckets[i-1])
		}
	}
}

// TestHistogramObserveNoAlloc pins the hot-path contract: Observe on a
// live histogram (and on the timer wrapping one) allocates nothing.
func TestHistogramObserveNoAlloc(t *testing.T) {
	h := &Histogram{}
	reg := NewRegistry()
	tm := reg.Timer("t")
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Millisecond)
		tm.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f per run, want 0", allocs)
	}
}

// TestHistogramNil: the off state. Every operation on a nil histogram
// is a no-op returning zero values.
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Stats() != (HistogramStats{}) {
		t.Error("nil histogram carries state")
	}
	if b, total := h.CumulativeBuckets(); b != nil || total != 0 {
		t.Error("nil histogram has buckets")
	}
}

// TestHistogramEmpty: a never-observed histogram reports all-zero stats
// and quantiles.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Stats() != (HistogramStats{}) || h.Quantile(0.99) != 0 {
		t.Error("empty histogram reports non-zero stats")
	}
}

// TestTimerQuantiles: the retrofit — every registered timer reports
// percentile estimates alongside the exact aggregates, and a shared
// handle accumulates into one distribution.
func TestTimerQuantiles(t *testing.T) {
	reg := NewRegistry()
	tm := reg.Timer("lat")
	for i := 1; i <= 1000; i++ {
		tm.Observe(time.Duration(i) * time.Microsecond)
	}
	st := tm.Stats()
	if st.Count != 1000 || st.MinNs != 1000 || st.MaxNs != 1000*1000 {
		t.Fatalf("timer aggregates %+v", st)
	}
	check := func(name string, got, truth int64) {
		if got < truth || float64(got) >= 1.5*float64(truth) {
			t.Errorf("%s = %d outside [v, 1.5v) for true %d", name, got, truth)
		}
	}
	check("p50", st.P50Ns, 500*1000)
	check("p90", st.P90Ns, 900*1000)
	check("p99", st.P99Ns, 990*1000)
	if snap := reg.Snapshot(); snap.Timers["lat"].P99Ns != st.P99Ns {
		t.Error("snapshot does not carry timer quantiles")
	}
}
