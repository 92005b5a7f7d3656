package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many goroutines —
// handle creation by name, counter/gauge/timer updates, and concurrent
// snapshots — so `go test -race` proves the registry race-free, and the
// final snapshot proves no update was lost.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Handles are fetched by name inside the goroutine, so handle
			// creation itself races against use and snapshotting.
			c := reg.Counter("shared.counter")
			ga := reg.Gauge("shared.gauge")
			tm := reg.Timer("shared.timer")
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Set(int64(i))
				tm.Observe(time.Duration(i + 1))
				if i%250 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["shared.counter"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	ts := snap.Timers["shared.timer"]
	if ts.Count != goroutines*perG {
		t.Errorf("timer count = %d, want %d", ts.Count, goroutines*perG)
	}
	if ts.MinNs != 1 || ts.MaxNs != perG {
		t.Errorf("timer min/max = %d/%d, want 1/%d", ts.MinNs, ts.MaxNs, perG)
	}
	if ts.SumNs != int64(goroutines)*perG*(perG+1)/2 {
		t.Errorf("timer sum = %d, want %d", ts.SumNs, int64(goroutines)*perG*(perG+1)/2)
	}
}

// TestRegistrySharesHandlesByName: two lookups of the same name must
// return the same handle, so concurrent subsystems accumulate into one
// metric.
func TestRegistrySharesHandlesByName(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.Counter("x"), reg.Counter("x")
	if a != b {
		t.Error("same-name counters are distinct handles")
	}
	a.Inc()
	b.Inc()
	if got := reg.Snapshot().Counters["x"]; got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
}

// TestNilRegistryDisabled: the "off" state. A nil registry hands out nil
// handles, every operation on them is a no-op, and a nil Obs bundle
// yields nil for both sinks.
func TestNilRegistryDisabled(t *testing.T) {
	var reg *Registry
	c, g, tm := reg.Counter("c"), reg.Gauge("g"), reg.Timer("t")
	if c != nil || g != nil || tm != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(7)
	g.Add(1)
	tm.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || tm.Stats() != (TimerStats{}) {
		t.Error("nil handles carry state")
	}
	if snap := reg.Snapshot(); snap.Counters != nil || snap.Gauges != nil || snap.Timers != nil {
		t.Error("nil registry snapshot not empty")
	}

	var o *Obs
	if o.Registry() != nil || o.Journal() != nil {
		t.Error("nil Obs bundle returned non-nil sinks")
	}
}

// TestDisabledNoAlloc pins the zero-overhead contract: metric updates
// through nil handles and spans opened with no span in ctx and no
// journal — what instrumented hot paths execute when observability is
// off — allocate nothing.
func TestDisabledNoAlloc(t *testing.T) {
	var (
		c   *Counter
		g   *Gauge
		tm  *Timer
		h   *Histogram
		sp  Span
		o   *Obs
		ctx = context.Background()
	)
	noJournal := &Obs{Reg: NewRegistry()}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
		tm.Observe(time.Millisecond)
		h.Observe(time.Millisecond)
		_ = h.Quantile(0.5)
		sp.Int("k", 1).End()
		for _, o := range []*Obs{o, noJournal} {
			osp, octx := o.StartSpan(ctx, "p")
			leaf := Start(octx, "c")
			leaf.Str("k", "v").End()
			osp.End()
		}
		_ = c.Value()
		_ = g.Value()
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation allocates %.1f per run, want 0", allocs)
	}
}

// TestTimerEmpty: an unobserved timer reports all-zero stats (min is
// primed to MaxInt64 internally and must not leak out).
func TestTimerEmpty(t *testing.T) {
	reg := NewRegistry()
	if got := reg.Timer("t").Stats(); got != (TimerStats{}) {
		t.Errorf("empty timer stats = %+v, want zero", got)
	}
}

func TestWriteSummary(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("search.states").Add(5000)
	reg.Gauge("search.space_total").Set(5000)
	reg.Timer("search.duration").Observe(2 * time.Second)
	var sb strings.Builder
	WriteSummary(&sb, reg.Snapshot(), 3*time.Second)
	out := sb.String()
	for _, want := range []string{
		"counter search.states",
		"gauge   search.space_total",
		"timer   search.duration",
		"search.states_per_sec",
		"2.5k", // 5000 states / 2s
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestFmtRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want string
	}{
		{12, "12.0"},
		{4500, "4.5k"},
		{2_500_000, "2.5M"},
	} {
		if got := fmtRate(tc.rate); got != tc.want {
			t.Errorf("fmtRate(%v) = %q, want %q", tc.rate, got, tc.want)
		}
	}
}

func TestProgressLine(t *testing.T) {
	got := progressLine(500, 1000, time.Second)
	for _, want := range []string{"500/1000", "50.0%", "500.0 states/s", "eta 1s"} {
		if !strings.Contains(got, want) {
			t.Errorf("progress line missing %q: %s", want, got)
		}
	}
	// Without a known total the line degrades to count and rate.
	if got := progressLine(500, 0, time.Second); strings.Contains(got, "eta") {
		t.Errorf("totalless progress line has an eta: %s", got)
	}
}
