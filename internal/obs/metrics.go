// Package obs is the runtime observability layer: an atomic metrics
// registry (counters, gauges, histogram-style timers), trace spans —
// the one event, which a JSONL journal and the server's flight recorder
// both record — and the shared command-line wiring (flags, periodic
// progress reporting, pprof/expvar debug listener, CPU/heap profiles)
// used by every cmd tool.
//
// The package is dependency-free (standard library only) and designed
// so that hot paths pay nothing when observability is disabled: code
// holds preregistered handles (*Counter, *Gauge, *Timer) and a nil
// handle — what a nil *Registry hands out — makes every operation a
// single predictable nil check with zero allocations. The same
// convention extends to *Journal, the zero Span and the *Obs bundle:
// nil receivers are valid and inert, so instrumented packages never
// branch on an "enabled" flag of their own.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op, so hot paths can hold
// handles unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer aggregates durations: count, sum, min, max and a log-bucketed
// latency histogram, all in nanoseconds and all updated atomically, so
// every registered timer reports p50/p90/p99 estimates (see Histogram
// for the bucket math and the quantile error bound). A nil *Timer is a
// no-op.
type Timer struct {
	min atomic.Int64 // primed to MaxInt64 by the registry
	h   Histogram    // owns count, sum, max and the buckets
}

// newTimer returns a Timer whose min is primed so the first observation
// always wins. Stats masks the sentinel: an unobserved timer reports
// zero-valued TimerStats, never the primed MaxInt64.
func newTimer() *Timer {
	t := &Timer{}
	t.min.Store(math.MaxInt64)
	return t
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	ns := d.Nanoseconds()
	t.h.observe(ns)
	for {
		cur := t.min.Load()
		if ns >= cur || t.min.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Stats returns the timer's aggregates (zero TimerStats on nil or when
// nothing was observed — a registered-but-never-observed timer must
// report 0, not the primed sentinel min).
func (t *Timer) Stats() TimerStats {
	if t == nil {
		return TimerStats{}
	}
	hs := t.h.Stats()
	if hs.Count == 0 {
		return TimerStats{}
	}
	return TimerStats{
		Count: hs.Count,
		SumNs: hs.SumNs,
		MinNs: t.min.Load(),
		MaxNs: hs.MaxNs,
		P50Ns: hs.P50Ns,
		P90Ns: hs.P90Ns,
		P99Ns: hs.P99Ns,
	}
}

// hist exposes the timer's histogram to the Prometheus exposition
// writer, which renders every timer as a cumulative-bucket series.
func (t *Timer) hist() *Histogram {
	if t == nil {
		return nil
	}
	return &t.h
}

// TimerStats is the JSON-serializable aggregate of a Timer. The
// quantiles are histogram estimates (exact count/sum/min/max; see the
// Histogram error bound).
type TimerStats struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MinNs int64 `json:"min_ns"`
	MaxNs int64 `json:"max_ns"`
	P50Ns int64 `json:"p50_ns,omitempty"`
	P90Ns int64 `json:"p90_ns,omitempty"`
	P99Ns int64 `json:"p99_ns,omitempty"`
}

// Registry names and hands out metric handles. Handles are created on
// first use and shared by name afterwards, so concurrent subsystems
// (e.g. search workers) accumulate into the same metric. A nil
// *Registry hands out nil handles, which disables instrumentation with
// zero allocations on the instrumented paths; this is the intended
// "off" state.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it if needed. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it if needed. Returns nil on
// a nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = newTimer()
		r.timers[name] = t
	}
	return t
}

// Snapshot is a point-in-time copy of every registered metric,
// JSON-serializable (it is served over expvar and on /v1/stats).
type Snapshot struct {
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Timers   map[string]TimerStats `json:"timers,omitempty"`
}

// Snapshot copies the current metric values. Safe to call concurrently
// with metric updates; returns a zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerStats, len(r.timers))
		for name, t := range r.timers {
			s.Timers[name] = t.Stats()
		}
	}
	return s
}

// Obs bundles the two observability sinks handed to instrumented
// packages. Either field may be nil; a nil *Obs disables everything.
type Obs struct {
	Reg *Registry
	J   *Journal
}

// Registry returns the bundle's registry (nil when o is nil).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Journal returns the bundle's journal (nil when o is nil).
func (o *Obs) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.J
}

// WriteSummary renders a snapshot as an aligned text block (the final
// -metrics report of the cmd tools), with metrics sorted by name and a
// derived states/sec line when the search instrumentation is present.
func WriteSummary(w io.Writer, snap Snapshot, elapsed time.Duration) {
	fmt.Fprintf(w, "obs: metrics after %s\n", elapsed.Round(time.Millisecond))
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(w, "obs:   counter %-28s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(w, "obs:   gauge   %-28s %d\n", name, snap.Gauges[name])
	}
	timerNames := make([]string, 0, len(snap.Timers))
	for name := range snap.Timers {
		timerNames = append(timerNames, name)
	}
	sort.Strings(timerNames)
	for _, name := range timerNames {
		ts := snap.Timers[name]
		fmt.Fprintf(w, "obs:   timer   %-28s count=%d sum=%s min=%s p50=%s p90=%s p99=%s max=%s\n",
			name, ts.Count,
			time.Duration(ts.SumNs).Round(time.Microsecond),
			time.Duration(ts.MinNs).Round(time.Microsecond),
			time.Duration(ts.P50Ns).Round(time.Microsecond),
			time.Duration(ts.P90Ns).Round(time.Microsecond),
			time.Duration(ts.P99Ns).Round(time.Microsecond),
			time.Duration(ts.MaxNs).Round(time.Microsecond))
	}
	if states := snap.Counters["search.states"]; states > 0 {
		if d := snap.Timers["search.duration"]; d.SumNs > 0 {
			rate := float64(states) / (float64(d.SumNs) / 1e9)
			fmt.Fprintf(w, "obs:   derived %-28s %s\n", "search.states_per_sec", fmtRate(rate))
		}
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtRate renders an events-per-second rate with a k/M suffix.
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.1f", r)
	}
}
