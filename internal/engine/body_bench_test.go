package engine

import (
	"context"
	"math/rand"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/gen"
)

// evaluateFabrics are the fabrics of the evaluate and batch workloads:
// C_4, C_5, fat-tree k=4, Benes 8 and a 2:1 oversubscribed Clos.
func evaluateFabrics(tb testing.TB) []gen.Spec {
	tb.Helper()
	var sps []gen.Spec
	for _, mk := range []func() (gen.Spec, error){
		func() (gen.Spec, error) { return gen.ClosSpec(4) },
		func() (gen.Spec, error) { return gen.ClosSpec(5) },
		func() (gen.Spec, error) { return gen.FatTreeSpec(4) },
		func() (gen.Spec, error) { return gen.BenesSpec(8) },
		func() (gen.Spec, error) { return gen.OversubscribedClosSpec(4, 4, 2, 1) },
	} {
		sp, err := mk()
		if err != nil {
			tb.Fatal(err)
		}
		sps = append(sps, sp)
	}
	return sps
}

// drawTraffic generates one scenario on a random fabric of sps with
// between minFlows and maxFlows flows and no assignment.
func drawTraffic(tb testing.TB, rng *rand.Rand, sps []gen.Spec, minFlows, maxFlows int) *codec.Scenario {
	tb.Helper()
	models := gen.Models()
	s, err := gen.Scenario(sps[rng.Intn(len(sps))], gen.TrafficConfig{
		Model:            models[rng.Intn(len(models))],
		Flows:            minFlows + rng.Intn(maxFlows-minFlows+1),
		ElephantFraction: 0.25,
		Seed:             rng.Int63(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func drawAssignment(rng *rand.Rand, flows, middles int) []int {
	ma := make([]int, flows)
	for i := range ma {
		ma[i] = 1 + rng.Intn(middles)
	}
	return ma
}

// BenchmarkEvaluatePooled times one batch-sweep item: Prepare plus
// Compute of an evaluate on a pooled block evaluator. The items are 32
// random assignments over each of 128 traffic matrices (16–48 flows) on
// the five evaluate fabrics, visited matrix by matrix. The matrices are
// split over two engines, 64 each, so every engine's evaluator pool
// holds all of its topologies and every timed item is a pool hit.
func BenchmarkEvaluatePooled(b *testing.B) {
	const matrices, items = 128, 32
	rng := rand.New(rand.NewSource(3))
	sps := evaluateFabrics(b)
	engines := []*Engine{New(Options{SearchWorkers: 1}), New(Options{SearchWorkers: 1})}
	type item struct {
		eng  *Engine
		scen *codec.Scenario
	}
	var work []item
	for m := 0; m < matrices; m++ {
		s := drawTraffic(b, rng, sps, 16, 48)
		eng := engines[m*len(engines)/matrices]
		for i := 0; i < items; i++ {
			it := *s
			it.Assignment = drawAssignment(rng, len(s.Flows), s.Middles)
			work = append(work, item{eng, &it})
		}
	}
	ctx := context.Background()
	run := func(it item) {
		p, err := it.eng.Prepare(Request{Op: OpEvaluate, Scenario: it.scen})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := it.eng.Compute(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	for _, it := range work {
		run(it)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(work[i%len(work)])
	}
}

// BenchmarkEvaluateCold times one evaluate-cold request, Prepare plus
// Compute, on one engine: 4,096 scenarios (16–48 flows, a random
// assignment each) on the five evaluate fabrics, visited in order. Each
// scenario has its own topology, far more than the evaluator pool
// keeps, so every timed request misses the pool and builds its block
// evaluator on its cached fabric, from the scratch of an evaluator the
// pool released.
func BenchmarkEvaluateCold(b *testing.B) {
	const scenarios = 4096
	rng := rand.New(rand.NewSource(5))
	sps := evaluateFabrics(b)
	reqs := make([]Request, scenarios)
	for i := range reqs {
		s := drawTraffic(b, rng, sps, 16, 48)
		s.Assignment = drawAssignment(rng, len(s.Flows), s.Middles)
		reqs[i] = Request{Op: OpEvaluate, Scenario: s}
	}
	eng := New(Options{SearchWorkers: 1})
	ctx := context.Background()
	run := func(req Request) {
		p, err := eng.Prepare(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Compute(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	for _, req := range reqs {
		run(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(reqs[i%len(reqs)])
	}
}

// searchSlot is one slot of the search-mix cycle: a fabric, a flow
// count and the search op.
type searchSlot struct {
	spec  func() (gen.Spec, error)
	flows int
	op    string
}

// searchMix is search-mix's eight-slot request cycle: three pruned lex
// searches on C_4 and three on fat-tree k=4 (7 flows each), one
// exhaustive lex search on C_3 (6 flows) and one pruned throughput
// search on C_3 (5 flows).
var searchMix = func() []searchSlot {
	c4 := func() (gen.Spec, error) { return gen.ClosSpec(4) }
	ft := func() (gen.Spec, error) { return gen.FatTreeSpec(4) }
	c3 := func() (gen.Spec, error) { return gen.ClosSpec(3) }
	return []searchSlot{
		{c4, 7, OpSearchLexPruned}, {c4, 7, OpSearchLexPruned}, {c4, 7, OpSearchLexPruned},
		{ft, 7, OpSearchLexPruned}, {ft, 7, OpSearchLexPruned}, {ft, 7, OpSearchLexPruned},
		{c3, 6, OpSearchLex},
		{c3, 5, OpSearchThroughputPruned},
	}
}()

// BenchmarkSearchMix times one search-mix request, Prepare plus
// Compute, on one engine: 32 cycles of searchMix over generated
// instances (the traffic model drawn per request, a quarter elephants),
// visited in cycle order, so one op is the mean over the eight slots.
func BenchmarkSearchMix(b *testing.B) {
	const cycles = 32
	rng := rand.New(rand.NewSource(1))
	var reqs []Request
	for i := 0; i < cycles*len(searchMix); i++ {
		slot := searchMix[i%len(searchMix)]
		sp, err := slot.spec()
		if err != nil {
			b.Fatal(err)
		}
		s := drawTraffic(b, rng, []gen.Spec{sp}, slot.flows, slot.flows)
		reqs = append(reqs, Request{Op: slot.op, Scenario: s})
	}
	eng := New(Options{SearchWorkers: 1})
	ctx := context.Background()
	run := func(req Request) {
		p, err := eng.Prepare(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Compute(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	for _, req := range reqs {
		run(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(reqs[i%len(reqs)])
	}
}

// sessionTrace is a session-churn cycle on C_5: a canonical 16-flow
// opening scenario and a delta sequence that keeps 8 to 48 flows live,
// arriving 45% of the time below the maximum, departing 35% of the time
// above the minimum and rerouting otherwise.
func sessionTrace(tb testing.TB, rng *rand.Rand, deltas int) (*codec.Scenario, []*codec.Delta) {
	tb.Helper()
	sp, err := gen.ClosSpec(5)
	if err != nil {
		tb.Fatal(err)
	}
	s := drawTraffic(tb, rng, []gen.Spec{sp}, 16, 16)
	s.Demands = nil
	s.Assignment = drawAssignment(rng, len(s.Flows), s.Middles)
	open, err := codec.Canonical(s)
	if err != nil {
		tb.Fatal(err)
	}
	// The session numbers the opening flows 0..n-1 in canonical order
	// and each arrival with the next ID.
	type live struct {
		id     int
		flow   codec.FlowJSON
		middle int
	}
	var flows []live
	for i, f := range open.Flows {
		flows = append(flows, live{i, f, open.Assignment[i]})
	}
	next := len(flows)
	has := func(f codec.FlowJSON) bool {
		for _, l := range flows {
			if l.flow == f {
				return true
			}
		}
		return false
	}
	out := make([]*codec.Delta, 0, deltas)
	for len(out) < deltas {
		r := rng.Float64()
		switch {
		case r < 0.45 && len(flows) < 48:
			f := codec.FlowJSON{
				SrcSwitch: 1 + rng.Intn(open.Tors), SrcServer: 1 + rng.Intn(open.Servers),
				DstSwitch: 1 + rng.Intn(open.Tors), DstServer: 1 + rng.Intn(open.Servers),
			}
			if has(f) {
				continue
			}
			m := 1 + rng.Intn(open.Middles)
			out = append(out, &codec.Delta{Op: codec.DeltaArrive, Flow: &f, Middle: m})
			flows = append(flows, live{next, f, m})
			next++
		case r < 0.80 && len(flows) > 8:
			i := rng.Intn(len(flows))
			out = append(out, &codec.Delta{Op: codec.DeltaDepart, ID: flows[i].id})
			flows = append(flows[:i], flows[i+1:]...)
		default:
			i := rng.Intn(len(flows))
			m := 1 + rng.Intn(open.Middles-1)
			if m >= flows[i].middle {
				m++
			}
			out = append(out, &codec.Delta{Op: codec.DeltaReroute, ID: flows[i].id, Middle: m})
			flows[i].middle = m
		}
	}
	return open, out
}

// BenchmarkSessionDelta times one session delta on C_5, the response
// body included, over a 256-delta churn cycle (sessionTrace). The
// session is closed and reopened, untimed, at the end of every cycle.
func BenchmarkSessionDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	open, deltas := sessionTrace(b, rng, 256)
	eng := New(Options{SearchWorkers: 1})
	ctx := context.Background()
	id := ""
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(deltas)
		if j == 0 {
			b.StopTimer()
			if id != "" {
				if _, err := eng.Sessions().Close(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
			r, err := eng.Sessions().Open(ctx, open)
			if err != nil {
				b.Fatal(err)
			}
			id = r.Session
			b.StartTimer()
		}
		if _, err := eng.Sessions().Delta(ctx, id, deltas[j]); err != nil {
			b.Fatal(err)
		}
	}
}
