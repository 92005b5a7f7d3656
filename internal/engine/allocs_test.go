package engine

import (
	"context"
	"runtime"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/gen"
)

// warmSearchCost returns the allocations and bytes allocated per warm
// Compute of op on s, averaged like testing.AllocsPerRun: the engine
// has served the request once, so its fabric is cached and the
// search's evaluators and frontier wait in their pools.
func warmSearchCost(t *testing.T, op string, s *codec.Scenario) (allocs, bytes uint64) {
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

	lexAllocs, lexBytes := warmSearchCost(t, OpSearchLexPruned, lex)
	wideAllocs, wideBytes := warmSearchCost(t, OpSearchLexPruned, &wide)
	tputAllocs, tputBytes := warmSearchCost(t, OpSearchThroughputPruned, tput)
	t.Logf("per warm Compute: lex on C_4 %d allocs, %d B; on %d ToRs %d allocs, %d B; throughput on C_3 %d allocs, %d B",
		lexAllocs, lexBytes, wide.Tors, wideAllocs, wideBytes, tputAllocs, tputBytes)
	// Measured: 62 and 100 allocations (224 and 194 before evaluators
	// and frontiers were reused).
	if lexAllocs > 72 {
		t.Errorf("a warm lex-pruned search on C_4 allocates %d times, want at most 72", lexAllocs)
	}
	if tputAllocs > 112 {
		t.Errorf("a warm throughput-pruned search on C_3 allocates %d times, want at most 112", tputAllocs)
	}
	if wideAllocs != lexAllocs || wideBytes > lexBytes+256 {
		t.Errorf("the lex search allocates %d times and %d B on C_4 but %d times and %d B on %d ToRs: something per search is sized by the lanes",
			lexAllocs, lexBytes, wideAllocs, wideBytes, wide.Tors)
	}
}
