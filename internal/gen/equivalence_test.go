package gen_test

// Cross-family equivalence suite: the ISSUE's acceptance proof that
// every topology family — Clos, fat-tree, Benes, oversubscribed Clos —
// flows through the evaluator, the search strategies and the LP bound
// with no family-specific branches. For one small instance per family
// (the fixed-seed corpus scenarios, all with full spaces of at most a
// few thousand states) a hand-rolled full-space oracle establishes the
// true optimum, and every production strategy must reproduce it
// bit-identically.

import (
	"math/big"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/corpus"
	"closnet/internal/lp"
	"closnet/internal/rational"
	"closnet/internal/reference"
	"closnet/internal/search"
	"closnet/internal/topology"
)

// familyInstances builds one small corpus instance per topology family.
func familyInstances(t *testing.T) map[string]struct {
	c  topology.Fabric
	fs core.Collection
} {
	t.Helper()
	out := make(map[string]struct {
		c  topology.Fabric
		fs core.Collection
	})
	for _, name := range []string{"example23", "genfattree", "genbenes", "genoversub"} {
		scens, _, err := corpus.Scenarios(2, []string{name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, fs, _, _, err := scens[0].Build()
		if err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		out[name] = struct {
			c  topology.Fabric
			fs core.Collection
		}{c, fs}
	}
	return out
}

// oracle scans all n^|F| assignments with a plain base-n counter and
// an independent evaluation path (ClosRouting + reference.MaxMinFair,
// not the kernel), returning the lex-max-min and max-throughput
// optima. It deliberately shares no enumeration or evaluation code
// with package search.
func oracle(t *testing.T, c topology.Fabric, fs core.Collection) (lexBest, tpBest core.Allocation, lexMA core.MiddleAssignment) {
	t.Helper()
	n := c.Size()
	ma := core.UniformAssignment(len(fs), 1)
	var tpVal *big.Rat
	for {
		r, err := core.ClosRouting(c, fs, ma)
		if err != nil {
			t.Fatalf("oracle routing %v: %v", ma, err)
		}
		a, err := reference.MaxMinFair(c.Network(), r)
		if err != nil {
			t.Fatalf("oracle waterfill %v: %v", ma, err)
		}
		if lexBest == nil || rational.LexCompareSorted(lexBest, a) < 0 {
			lexBest = a
			lexMA = append(core.MiddleAssignment(nil), ma...)
		}
		if tp := core.Throughput(a); tpVal == nil || tpVal.Cmp(tp) < 0 {
			tpBest, tpVal = a, tp
		}
		// Advance the base-n odometer; done when it wraps.
		i := 0
		for ; i < len(ma); i++ {
			if ma[i] < n {
				ma[i]++
				break
			}
			ma[i] = 1
		}
		if i == len(ma) {
			return lexBest, tpBest, lexMA
		}
	}
}

// TestCrossFamilyOracle: every search strategy, on every family, finds
// an optimum matching the independent full-space oracle — sorted
// allocations identical as exact rationals for the lex objective,
// total throughput identical for the throughput objective.
func TestCrossFamilyOracle(t *testing.T) {
	for name, in := range familyInstances(t) {
		lexBest, tpBest, _ := oracle(t, in.c, in.fs)
		strategies := map[string]search.Options{
			"workers1":   {Workers: 1},
			"workers2":   {Workers: 2},
			"workers4":   {Workers: 4},
			"pruned":     {Pruned: true},
			"full-space": {FullSpace: true, Workers: 2},
		}
		for sname, opts := range strategies {
			lex, err := search.LexMaxMin(in.c, in.fs, opts)
			if err != nil {
				t.Fatalf("%s/%s lex: %v", name, sname, err)
			}
			if rational.LexCompareSorted(lex.Allocation, lexBest) != 0 {
				t.Errorf("%s/%s lex optimum %v != oracle %v",
					name, sname, lex.Allocation.SortedCopy(), lexBest.SortedCopy())
			}
			tp, err := search.ThroughputMaxMin(in.c, in.fs, opts)
			if err != nil {
				t.Fatalf("%s/%s throughput: %v", name, sname, err)
			}
			got, want := core.Throughput(tp.Allocation), core.Throughput(tpBest)
			if got.Cmp(want) != 0 {
				t.Errorf("%s/%s throughput %s != oracle %s", name, sname, got, want)
			}
		}
	}
}

// TestCrossFamilyEvaluatorAgreement: for each family, the block
// evaluator and ClosRouting + reference.MaxMinFair produce identical
// allocations on every assignment of a sample.
func TestCrossFamilyEvaluatorAgreement(t *testing.T) {
	for name, in := range familyInstances(t) {
		be, err := core.NewBlockEvaluator(in.c, in.fs)
		if err != nil {
			t.Fatalf("%s block evaluator: %v", name, err)
		}
		n, nf := in.c.Size(), len(in.fs)
		// A deterministic sample: uniform assignments plus a rolling one.
		var sample []core.MiddleAssignment
		for m := 1; m <= n; m++ {
			sample = append(sample, core.UniformAssignment(nf, m))
		}
		roll := make(core.MiddleAssignment, nf)
		for fi := range roll {
			roll[fi] = fi%n + 1
		}
		sample = append(sample, roll)
		for _, ma := range sample {
			r, err := core.ClosRouting(in.c, in.fs, ma)
			if err != nil {
				t.Fatalf("%s routing %v: %v", name, ma, err)
			}
			ref, err := reference.MaxMinFair(in.c.Network(), r)
			if err != nil {
				t.Fatalf("%s reference %v: %v", name, ma, err)
			}
			flat := make([]int, nf)
			for fi, m := range ma {
				flat[fi] = m
			}
			br, err := be.EvalBlock(flat, 1)
			if err != nil {
				t.Fatalf("%s block eval %v: %v", name, ma, err)
			}
			if ba := br.Alloc(0); !ref.Equal(ba) {
				t.Errorf("%s: block evaluator %v != reference %v on %v", name, ba, ref, ma)
			}
		}
	}
}

// TestCrossFamilyLPBound: the splittable LP relaxation upper-bounds the
// best unsplittable throughput on every family, certified by the
// simplex dual.
func TestCrossFamilyLPBound(t *testing.T) {
	for name, in := range familyInstances(t) {
		_, tpBest, _ := oracle(t, in.c, in.fs)
		paths, err := lp.ClosAllPaths(in.c, in.fs)
		if err != nil {
			t.Fatalf("%s paths: %v", name, err)
		}
		bound, err := lp.SplittableThroughputBound(in.c.Network(), in.fs, paths)
		if err != nil {
			t.Fatalf("%s LP bound: %v", name, err)
		}
		if best := core.Throughput(tpBest); bound.Cmp(best) < 0 {
			t.Errorf("%s: splittable bound %s below unsplittable optimum %s", name, bound, best)
		}
	}
}

// TestCrossFamilyScenarioRoundTrip: each generated corpus scenario
// canonicalizes, hashes and rebuilds to the same instance — and the
// topology field survives the round trip.
func TestCrossFamilyScenarioRoundTrip(t *testing.T) {
	scens, names, err := corpus.Scenarios(2, []string{"genfattree", "genbenes", "genoversub"})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scens {
		data, err := codec.Encode(s)
		if err != nil {
			t.Fatalf("%s encode: %v", names[i], err)
		}
		back, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v", names[i], err)
		}
		if back.Topology != s.Topology {
			t.Errorf("%s: topology %q round-tripped to %q", names[i], s.Topology, back.Topology)
		}
		h1, err := s.Hash()
		if err != nil {
			t.Fatalf("%s hash: %v", names[i], err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatalf("%s rehash: %v", names[i], err)
		}
		if h1 != h2 {
			t.Errorf("%s: hash changed across encode/decode", names[i])
		}
	}
}
