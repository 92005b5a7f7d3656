package closnet

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per experiment ID of DESIGN.md's index) and quantifies
// the design choices called out in DESIGN.md §5 as ablations: the
// kernel's water filling against the *big.Rat reference walk,
// Hopcroft–Karp vs greedy matching, and symmetry reduction in the
// routing-space search.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"testing"

	"closnet/internal/coloring"
	"closnet/internal/core"
	"closnet/internal/doom"
	"closnet/internal/experiments"
	"closnet/internal/matching"
	"closnet/internal/search"
	"closnet/internal/topology"
	"closnet/internal/workload"
)

// benchExperiment runs one experiment per iteration and fails the bench
// if the experiment errors.
func benchExperiment(b *testing.B, run func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkExpF1(b *testing.B) { benchExperiment(b, experiments.RunF1) }

func BenchmarkExpF2(b *testing.B) { benchExperiment(b, experiments.RunF2) }

func BenchmarkExpT1(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunT1([]int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16, 32, 64})
	})
}

func BenchmarkExpF3(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunF3([]int{3, 4, 5})
	})
}

func BenchmarkExpT2(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunT2([]int{3, 4, 5, 6, 7, 8})
	})
}

func BenchmarkExpF4(b *testing.B) { benchExperiment(b, experiments.RunF4) }

func BenchmarkExpT3(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunT3([]int{3, 5, 7, 9, 11, 15}, []int{1, 4, 16, 64})
	})
}

func BenchmarkExpS1(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunS1(experiments.DefaultSimConfig())
	})
}

func BenchmarkExpS1b(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunS1Adversarial([]int{3, 4, 5, 6}, 1)
	})
}

func BenchmarkExpP1(b *testing.B) { benchExperiment(b, experiments.RunP1) }

func BenchmarkExpE1(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunE1([]int{1, 2, 4, 8, 16, 32, 64})
	})
}

func BenchmarkExpR1(b *testing.B) { benchExperiment(b, experiments.RunR1) }

func BenchmarkExpM1(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunM1([]int{3, 4}, 5, 1)
	})
}

// --- Ablation: kernel vs reference water filling --------------------------

// waterfillInstance builds a fixed mid-sized instance: a permutation
// workload on C_4 routed by ECMP.
func waterfillInstance(b *testing.B) (*topology.Clos, core.Collection, core.Routing) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	c := topology.MustClos(4)
	ms := topology.MustMacroSwitch(4)
	pair, err := workload.Uniform(rng, c, ms, 64)
	if err != nil {
		b.Fatal(err)
	}
	ma := make(core.MiddleAssignment, len(pair.Clos))
	for i := range ma {
		ma[i] = rng.Intn(4) + 1
	}
	r, err := core.ClosRouting(c, pair.Clos, ma)
	if err != nil {
		b.Fatal(err)
	}
	return c, pair.Clos, r
}

// BenchmarkWaterfillExact times MaxMinFair, the kernel's one-shot
// driver that every production fill runs on.
func BenchmarkWaterfillExact(b *testing.B) {
	c, fs, r := waterfillInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MaxMinFair(c.Network(), fs, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaterfillReference times the *big.Rat reference walk the
// kernel is tested against, on the same instance.
func BenchmarkWaterfillReference(b *testing.B) {
	c, fs, r := waterfillInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReferenceMaxMinFair(c.Network(), fs, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: Hopcroft–Karp vs greedy matching ---------------------------

func matchingInstance() matching.Graph {
	rng := rand.New(rand.NewSource(2))
	g := matching.Graph{NumLeft: 128, NumRight: 128}
	for e := 0; e < 1024; e++ {
		g.Edges = append(g.Edges, matching.Edge{Left: rng.Intn(128), Right: rng.Intn(128)})
	}
	return g
}

func BenchmarkMatchingHopcroftKarp(b *testing.B) {
	g := matchingInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.MaxMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchingGreedy(b *testing.B) {
	g := matchingInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.GreedyMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: Rat64 kernel vs big.Rat per-state evaluation ----------------

// evaluatorBench measures one max-min fair evaluation per iteration — a
// block of one state, materialized — on a contended C_4 instance,
// cycling through a fixed set of assignments so the scratch reuse is
// exercised.
func evaluatorBench(b *testing.B, forceBig bool) {
	c, fs := enumInstance(b, 4, 8)
	ev, err := core.NewBlockEvaluator(c, fs)
	if err != nil {
		b.Fatal(err)
	}
	ev.ForceBig(forceBig)
	rng := rand.New(rand.NewSource(3))
	mas := make([]core.MiddleAssignment, 64)
	for i := range mas {
		mas[i] = make(core.MiddleAssignment, len(fs))
		for fi := range mas[i] {
			mas[i][fi] = 1 + rng.Intn(c.Size())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ev.EvalBlock(mas[i%len(mas)], 1)
		if err != nil {
			b.Fatal(err)
		}
		res.Alloc(0)
	}
}

// BenchmarkEvaluator is the per-state evaluation on the small-word
// Rat64 kernel.
func BenchmarkEvaluator(b *testing.B) { evaluatorBench(b, false) }

// BenchmarkEvaluatorBigRat pins the same evaluation to the *big.Rat
// promotion path, quantifying what the Rat64 kernel saves.
func BenchmarkEvaluatorBigRat(b *testing.B) { evaluatorBench(b, true) }

// BenchmarkEvaluatorBlock batches the same assignments through the SoA
// block water filling (core.BlockEvaluator) 32 states at a time — the
// search engine's default evaluation unit. ns/op is per state, directly
// comparable to BenchmarkEvaluator.
func BenchmarkEvaluatorBlock(b *testing.B) {
	c, fs := enumInstance(b, 4, 8)
	bev, err := core.NewBlockEvaluator(c, fs)
	if err != nil {
		b.Fatal(err)
	}
	const block = 32
	rng := rand.New(rand.NewSource(3))
	mas := make([]int, block*len(fs))
	for i := range mas {
		mas[i] = 1 + rng.Intn(c.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += block {
		if _, err := bev.EvalBlock(mas, block); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: symmetry canonicalization in exhaustive lex search ---------

func searchInstance(b *testing.B) (*topology.Clos, core.Collection) {
	b.Helper()
	in, err := Example23()
	if err != nil {
		b.Fatal(err)
	}
	return in.Clos, in.Flows
}

// BenchmarkLexSearchFull scans all n^|F| assignments of Example 2.3.
func BenchmarkLexSearchFull(b *testing.B) {
	c, fs := searchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.LexMaxMin(c, fs, search.Options{FullSpace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLexSearchCanonical is the default symmetry-canonical
// enumeration (one representative per middle-relabeling orbit) on the
// same instance — bit-identical result, fewer states.
func BenchmarkLexSearchCanonical(b *testing.B) {
	c, fs := searchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.LexMaxMin(c, fs, search.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serial vs parallel routing-space search -------------------------------

// enumInstance builds a contended collection of the given size on C_n:
// flows alternate between a cyclic permutation and loopback pairs so the
// water filling has several freeze rounds per assignment.
func enumInstance(b *testing.B, n, flows int) (*topology.Clos, core.Collection) {
	b.Helper()
	c := topology.MustClos(n)
	fs := core.Collection{}
	for f := 0; f < flows; f++ {
		i := f%n + 1
		if f%2 == 0 {
			fs = fs.Add(c.Source(i, 1), c.Dest(i%n+1, 1), 1)
		} else {
			fs = fs.Add(c.Source(i, 1), c.Dest(i, 1), 1)
		}
	}
	return c, fs
}

func benchLexWorkers(b *testing.B, n, flows, workers int) {
	c, fs := enumInstance(b, n, flows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.LexMaxMin(c, fs, search.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLexSearchC3Serial(b *testing.B) { benchLexWorkers(b, 3, 7, 1) }

func BenchmarkLexSearchC3Workers4(b *testing.B) { benchLexWorkers(b, 3, 7, 4) }

func BenchmarkLexSearchC4Serial(b *testing.B) { benchLexWorkers(b, 4, 5, 1) }

func BenchmarkLexSearchC4Workers4(b *testing.B) { benchLexWorkers(b, 4, 5, 4) }

func benchThroughputWorkers(b *testing.B, n, flows, workers int) {
	c, fs := enumInstance(b, n, flows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.ThroughputMaxMin(c, fs, search.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughputSearchC3Serial(b *testing.B) { benchThroughputWorkers(b, 3, 7, 1) }

func BenchmarkThroughputSearchC3Workers4(b *testing.B) { benchThroughputWorkers(b, 3, 7, 4) }

// --- Component benchmarks --------------------------------------------------

func BenchmarkDoomSwitch(b *testing.B) {
	in, err := Theorem54(15, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DoomSwitch(in.Clos, in.Flows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgeColorK32(b *testing.B) {
	n := 32
	g := matching.Graph{NumLeft: n, NumRight: n}
	for l := 0; l < n; l++ {
		for r := 0; r < n; r++ {
			g.Edges = append(g.Edges, matching.Edge{Left: l, Right: r})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coloring.EdgeColor(g, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeasibilityRefuterT42(b *testing.B) {
	in, err := Theorem42(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := FeasibleRouting(context.Background(), in.Clos, in.Flows, in.MacroRates, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			b.Fatal("instance unexpectedly routable")
		}
	}
}

func BenchmarkWaterfillTheorem43N8(b *testing.B) {
	in, err := Theorem43(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClosMaxMinFair(in.Clos, in.Flows, in.Witness); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: Doom-Switch victim policy -----------------------------------

func benchDoomPolicy(b *testing.B, policy doom.VictimPolicy) {
	in, err := Theorem54(15, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := doom.RouteWithPolicy(in.Clos, in.Flows, policy)
		if err != nil {
			b.Fatal(err)
		}
		a, err := ClosMaxMinFair(in.Clos, in.Flows, res.Assignment)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			f, _ := Throughput(a).Float64()
			b.ReportMetric(f, "throughput")
		}
	}
}

func BenchmarkDoomPolicyLeastLoaded(b *testing.B) { benchDoomPolicy(b, doom.LeastLoaded()) }

func BenchmarkDoomPolicyMostLoaded(b *testing.B) { benchDoomPolicy(b, doom.MostLoaded()) }

func BenchmarkExpD1(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunD1(experiments.DynConfig{
			Size: 3, Loads: []float64{0.6}, MeanSize: 1, NumFlows: 200, Seed: 1,
		})
	})
}

func BenchmarkExpS2(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunS2(experiments.SimConfig{Sizes: []int{4}, FlowsPerServerPair: 2, Trials: 5, Seed: 1})
	})
}

func BenchmarkExpO1(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunO1(6, 3, []int{1, 2, 3, 4, 5, 6}, 5, 1)
	})
}

func BenchmarkExpA1(b *testing.B) {
	benchExperiment(b, func() (*experiments.Table, error) {
		return experiments.RunA1([]int{2, 3}, 8, 10, 1)
	})
}
