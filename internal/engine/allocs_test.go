package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/gen"
)

// warmComputeCost returns the allocations and bytes allocated per warm
// Compute of op on s, averaged like testing.AllocsPerRun: the engine
// has served the request once, so its fabric is cached and the op's
// evaluators (and a search's frontier) wait in their pools.
func warmComputeCost(t *testing.T, op string, s *codec.Scenario) (allocs, bytes uint64) {
	t.Helper()
	const runs = 100
	eng := New(Options{SearchWorkers: 1})
	p, err := eng.Prepare(Request{Op: op, Scenario: s})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	compute := func() {
		if _, err := eng.Compute(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	compute()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compute()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestWarmSearchAllocs pins what a warm pruned search allocates: a
// 7-flow lex search on C_4 and a 5-flow throughput search on C_3 stay
// under their measured counts plus headroom, and the same lex search
// on a Clos with twice C_4's ToRs allocates as often and as many bytes
// (up to a pool item the GC may take), so nothing a warm search
// allocates is sized by the fabric's lanes.
func TestWarmSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released evaluators at random under -race")
	}
	draw := func(spec func() (gen.Spec, error), flows int) *codec.Scenario {
		sp, err := spec()
		if err != nil {
			t.Fatal(err)
		}
		s, err := gen.Scenario(sp, gen.TrafficConfig{Flows: flows, ElephantFraction: 0.25, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lex := draw(func() (gen.Spec, error) { return gen.ClosSpec(4) }, 7)
	wide := *lex
	wide.Tors *= 2
	tput := draw(func() (gen.Spec, error) { return gen.ClosSpec(3) }, 5)

	lexAllocs, lexBytes := warmComputeCost(t, OpSearchLexPruned, lex)
	wideAllocs, wideBytes := warmComputeCost(t, OpSearchLexPruned, &wide)
	tputAllocs, tputBytes := warmComputeCost(t, OpSearchThroughputPruned, tput)
	t.Logf("per warm Compute: lex on C_4 %d allocs, %d B; on %d ToRs %d allocs, %d B; throughput on C_3 %d allocs, %d B",
		lexAllocs, lexBytes, wide.Tors, wideAllocs, wideBytes, tputAllocs, tputBytes)
	// Measured: 43 and 87 allocations.
	if lexAllocs > 51 {
		t.Errorf("a warm lex-pruned search on C_4 allocates %d times, want at most 51", lexAllocs)
	}
	if tputAllocs > 98 {
		t.Errorf("a warm throughput-pruned search on C_3 allocates %d times, want at most 98", tputAllocs)
	}
	if wideAllocs != lexAllocs || wideBytes > lexBytes+256 {
		t.Errorf("the lex search allocates %d times and %d B on C_4 but %d times and %d B on %d ToRs: something per search is sized by the lanes",
			lexAllocs, lexBytes, wideAllocs, wideBytes, wide.Tors)
	}
}

// TestWarmEvaluateAllocs pins what a pooled evaluate allocates: a warm
// Compute of a 32-flow evaluate on C_5, whose block evaluator waits in
// the engine's pool, stays at its measured count.
func TestWarmEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released evaluators at random under -race")
	}
	sp, err := gen.ClosSpec(5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := gen.Scenario(sp, gen.TrafficConfig{Flows: 32, ElephantFraction: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Assignment = make([]int, len(s.Flows))
	for i := range s.Assignment {
		s.Assignment[i] = 1 + i%s.Middles
	}
	allocs, bytes := warmComputeCost(t, OpEvaluate, s)
	t.Logf("per warm Compute: evaluate on C_5 %d allocs, %d B", allocs, bytes)
	// Measured: 1 allocation, 384 B: the response body.
	if allocs > 1 {
		t.Errorf("a pooled evaluate on C_5 allocates %d times, want at most 1", allocs)
	}
}

// TestWarmSessionDeltaAllocs pins what a session delta allocates: the
// 256-delta C_5 trace of BenchmarkSessionDelta, replayed on a fresh
// session of an engine that has served it once, stays at its measured
// count per delta.
func TestWarmSessionDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled body writers at random under -race")
	}
	open, deltas := sessionTrace(t, rand.New(rand.NewSource(3)), 256)
	ss := New(Options{SearchWorkers: 1}).Sessions()
	ctx := context.Background()
	perDelta := func() uint64 {
		r, err := ss.Open(ctx, open)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, d := range deltas {
			if _, err := ss.Delta(ctx, r.Session, d); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if _, err := ss.Close(ctx, r.Session); err != nil {
			t.Fatal(err)
		}
		return (after.Mallocs - before.Mallocs) / uint64(len(deltas))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perDelta()
	allocs := perDelta()
	t.Logf("per warm session delta on C_5: %d allocs", allocs)
	// Measured: 10 allocations.
	if allocs > 10 {
		t.Errorf("a session delta on C_5 allocates %d times, want at most 10", allocs)
	}
}
