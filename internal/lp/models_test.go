package lp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"closnet/internal/core"
	"closnet/internal/matching"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// macroPaths returns the unique path of each flow in the macro-switch.
func macroPaths(ms *topology.MacroSwitch, fs core.Collection) (PathSets, error) {
	ps := make(PathSets, len(fs))
	for i, f := range fs {
		p, err := ms.Path(f.Src, f.Dst)
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
		ps[i] = []topology.Path{p}
	}
	return ps, nil
}

// splittableMaxThroughput solves ThroughputProblem, the splittable
// (classic network flow) maximum-throughput LP, on the primal simplex
// alone: the oracle SplittableThroughputBound's certified dual value is
// checked against. It returns the optimum and the per-flow totals.
func splittableMaxThroughput(net *topology.Network, fs core.Collection, paths PathSets) (*big.Rat, rational.Vec, error) {
	p, err := ThroughputProblem(net, fs, paths)
	if err != nil {
		return nil, nil, err
	}
	sol, err := Solve(p)
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != Optimal {
		return nil, nil, fmt.Errorf("lp: max throughput LP is %v", sol.Status)
	}
	l := layout(paths)
	rates := rational.NewVec(len(paths))
	for fi := range paths {
		for pi := range paths[fi] {
			rates[fi].Add(rates[fi], sol.X[l.offset[fi]+pi])
		}
	}
	return sol.Objective, rates, nil
}

// example23Clos builds the Example 2.3 collection over C_2.
func example23Clos(c *topology.Clos) core.Collection {
	return core.NewCollection(
		c.Source(1, 2), c.Dest(1, 2),
		c.Source(1, 2), c.Dest(2, 1),
		c.Source(1, 2), c.Dest(2, 2),
		c.Source(2, 1), c.Dest(2, 1),
		c.Source(2, 2), c.Dest(2, 2),
		c.Source(1, 1), c.Dest(1, 1),
	)
}

func TestSplittableMaxThroughputMacroExample33(t *testing.T) {
	ms := topology.MustMacroSwitch(1)
	fs := core.NewCollection(
		ms.Source(1, 1), ms.Dest(1, 1),
		ms.Source(2, 1), ms.Dest(2, 1),
		ms.Source(2, 1), ms.Dest(1, 1),
	)
	paths, err := macroPaths(ms, fs)
	if err != nil {
		t.Fatal(err)
	}
	total, rates, err := splittableMaxThroughput(ms.Network(), fs, paths)
	if err != nil {
		t.Fatal(err)
	}
	// Maximum throughput across MS_1 is 2 (Lemma 3.2 / Example 3.3); the
	// splittable LP relaxation is bounded by the same server-link cuts.
	if total.Cmp(rational.Int(2)) != 0 {
		t.Errorf("total = %s, want 2", rational.String(total))
	}
	if rates.Sum().Cmp(total) != 0 {
		t.Error("per-flow totals do not add to the optimum")
	}
}

// TestSplittableThroughputMatchesMatching checks LP/matching agreement on
// random macro-switch instances: the bipartite b-matching polytope for
// unit node capacities is integral, so the splittable LP optimum equals
// the maximum matching size of G^MS.
func TestSplittableThroughputMatchesMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(2) + 1
		ms := topology.MustMacroSwitch(n)
		numServers := 2 * n * n
		var fs core.Collection
		g := matching.Graph{NumLeft: numServers, NumRight: numServers}
		for e := 0; e < rng.Intn(8)+1; e++ {
			si, sj := rng.Intn(2*n)+1, rng.Intn(n)+1
			di, dj := rng.Intn(2*n)+1, rng.Intn(n)+1
			fs = fs.Add(ms.Source(si, sj), ms.Dest(di, dj), 1)
			g.Edges = append(g.Edges, matching.Edge{
				Left:  (si-1)*n + sj - 1,
				Right: (di-1)*n + dj - 1,
			})
		}
		paths, err := macroPaths(ms, fs)
		if err != nil {
			t.Fatal(err)
		}
		total, _, err := splittableMaxThroughput(ms.Network(), fs, paths)
		if err != nil {
			t.Fatal(err)
		}
		m, err := matching.MaxMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		if total.Cmp(rational.Int(int64(len(m)))) != 0 {
			t.Fatalf("trial %d: LP total %s != matching size %d", trial, rational.String(total), len(m))
		}
	}
}

// TestSplittableMaxMinMatchesWaterfillOnFixedPaths: with a single
// candidate path per flow, the progressive-filling LP must agree with the
// combinatorial water-filler.
func TestSplittableMaxMinMatchesWaterfillOnFixedPaths(t *testing.T) {
	ms := topology.MustMacroSwitch(2)
	fs := core.NewCollection(
		ms.Source(1, 2), ms.Dest(1, 2),
		ms.Source(1, 2), ms.Dest(2, 1),
		ms.Source(1, 2), ms.Dest(2, 2),
		ms.Source(2, 1), ms.Dest(2, 1),
		ms.Source(2, 2), ms.Dest(2, 2),
		ms.Source(1, 1), ms.Dest(1, 1),
	)
	paths, err := macroPaths(ms, fs)
	if err != nil {
		t.Fatal(err)
	}
	lpRates, err := SplittableMaxMin(ms.Network(), fs, paths)
	if err != nil {
		t.Fatal(err)
	}
	wfRates, err := core.MacroMaxMinFair(ms, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !lpRates.Equal(wfRates) {
		t.Errorf("LP rates %v != waterfill rates %v", lpRates, wfRates)
	}
}

// TestDemandSatisfactionSplittableClos is experiment P1's core assertion:
// with splittable flows (all n paths available), the max-min fair rates
// in C_n equal the macro-switch rates exactly — the inside of the network
// can be abstracted away (§1, "demand satisfaction").
func TestDemandSatisfactionSplittableClos(t *testing.T) {
	c := topology.MustClos(2)
	ms := topology.MustMacroSwitch(2)
	fs := example23Clos(c)
	fsMacro := core.NewCollection(
		ms.Source(1, 2), ms.Dest(1, 2),
		ms.Source(1, 2), ms.Dest(2, 1),
		ms.Source(1, 2), ms.Dest(2, 2),
		ms.Source(2, 1), ms.Dest(2, 1),
		ms.Source(2, 2), ms.Dest(2, 2),
		ms.Source(1, 1), ms.Dest(1, 1),
	)

	paths, err := ClosAllPaths(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	closRates, err := SplittableMaxMin(c.Network(), fs, paths)
	if err != nil {
		t.Fatal(err)
	}
	macroRates, err := core.MacroMaxMinFair(ms, fsMacro)
	if err != nil {
		t.Fatal(err)
	}
	if !closRates.Equal(macroRates) {
		t.Errorf("splittable Clos rates %v != macro rates %v", closRates, macroRates)
	}
}

func TestSplittableMaxMinEmptyAndErrors(t *testing.T) {
	c := topology.MustClos(1)
	rates, err := SplittableMaxMin(c.Network(), nil, nil)
	if err != nil || len(rates) != 0 {
		t.Errorf("empty: rates=%v err=%v", rates, err)
	}
	fs := core.NewCollection(c.Source(1, 1), c.Dest(1, 1))
	if _, err := SplittableMaxMin(c.Network(), fs, PathSets{}); err == nil {
		t.Error("mismatched path sets accepted")
	}
	if _, err := SplittableMaxMin(c.Network(), fs, PathSets{{}}); err == nil {
		t.Error("flow without candidate paths accepted")
	}
	if _, _, err := splittableMaxThroughput(c.Network(), fs, PathSets{}); err == nil {
		t.Error("mismatched path sets accepted by throughput model")
	}
}

func TestClosAllPathsAndMacroPathsErrors(t *testing.T) {
	c := topology.MustClos(1)
	ms := topology.MustMacroSwitch(1)
	badFlow := core.Collection{{Src: c.Input(1), Dst: c.Dest(1, 1)}}
	if _, err := ClosAllPaths(c, badFlow); err == nil {
		t.Error("non-source origin accepted")
	}
	badFlow2 := core.Collection{{Src: ms.Input(1), Dst: ms.Dest(1, 1)}}
	if _, err := macroPaths(ms, badFlow2); err == nil {
		t.Error("non-source origin accepted by macro paths")
	}
}

// TestSplittableMaxMinSharedBottleneck exercises multi-round progressive
// filling: two flows share a source link, a third is free until its
// destination link.
func TestSplittableMaxMinSharedBottleneck(t *testing.T) {
	ms := topology.MustMacroSwitch(1)
	fs := core.NewCollection(
		ms.Source(1, 1), ms.Dest(1, 1), // shares s1.1 with next
		ms.Source(1, 1), ms.Dest(2, 1),
		ms.Source(2, 1), ms.Dest(2, 1), // then capped by t2.1
	)
	paths, err := macroPaths(ms, fs)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := SplittableMaxMin(ms.Network(), fs, paths)
	if err != nil {
		t.Fatal(err)
	}
	want := rational.VecOf(1, 2, 1, 2, 1, 2)
	if !rates.Equal(want) {
		t.Errorf("rates = %v, want %v", rates, want)
	}
}
