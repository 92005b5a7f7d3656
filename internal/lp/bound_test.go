package lp

import (
	"math/big"
	"testing"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

func TestPrefixPathsShape(t *testing.T) {
	// C_3 so free flows get 3 candidate paths.
	c := topology.MustClos(3)
	fs := core.NewCollection(
		c.Source(1, 1), c.Dest(1, 1),
		c.Source(1, 2), c.Dest(2, 1),
		c.Source(2, 1), c.Dest(1, 2),
	)
	ma := core.MiddleAssignment{2, 3, 1}
	ps, err := PrefixPaths(c, fs, ma, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(fs) {
		t.Fatalf("%d path sets for %d flows", len(ps), len(fs))
	}
	if len(ps[0]) != 3 {
		t.Errorf("free flow has %d candidate paths, want 3", len(ps[0]))
	}
	for fi := 1; fi < len(fs); fi++ {
		if len(ps[fi]) != 1 {
			t.Errorf("fixed flow %d has %d paths, want 1", fi, len(ps[fi]))
		}
		// The single path must route through the assigned middle.
		want, err := c.Path(fs[fi].Src, fs[fi].Dst, ma[fi])
		if err != nil {
			t.Fatal(err)
		}
		for j, l := range want {
			if ps[fi][0][j] != l {
				t.Errorf("fixed flow %d path differs from middle %d's", fi, ma[fi])
				break
			}
		}
	}
	if _, err := PrefixPaths(c, fs, core.MiddleAssignment{1}, 0); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := PrefixPaths(c, fs, ma, len(fs)+1); err == nil {
		t.Error("out-of-range fixedFrom accepted")
	}
}

// TestCertifyDualAcceptsSimplexOptimum: by strong duality the simplex
// optimum's dual solution must pass certification with value exactly
// equal to the primal optimum — certifying costs no pruning power.
func TestCertifyDualAcceptsSimplexOptimum(t *testing.T) {
	c := topology.MustClos(2)
	fs := example23Clos(c)
	paths, err := ClosAllPaths(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ThroughputProblem(c.Network(), fs, paths)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", sol.Status)
	}
	bound, err := CertifyDual(p, sol.Duals)
	if err != nil {
		t.Fatalf("simplex duals rejected: %v", err)
	}
	if bound.Cmp(sol.Objective) != 0 {
		t.Errorf("certified bound %s != primal optimum %s",
			rational.String(bound), rational.String(sol.Objective))
	}
}

// TestCertifyDualRejectsTampered: breaking a sign condition or lowering
// a dual below feasibility must fail certification — the checks are what
// make the pruning bound independent of solver correctness.
func TestCertifyDualRejectsTampered(t *testing.T) {
	c := topology.MustClos(2)
	fs := example23Clos(c)
	paths, err := ClosAllPaths(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ThroughputProblem(c.Network(), fs, paths)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(mutate func(ys []*big.Rat)) error {
		ys := make([]*big.Rat, len(sol.Duals))
		for i, y := range sol.Duals {
			ys[i] = new(big.Rat).Set(y)
		}
		mutate(ys)
		_, err := CertifyDual(p, ys)
		return err
	}
	// Zeroing every dual violates the dual constraints (0 < c_j = 1).
	if err := tamper(func(ys []*big.Rat) {
		for _, y := range ys {
			y.SetInt64(0)
		}
	}); err == nil {
		t.Error("all-zero duals certified")
	}
	// A negative multiplier on a ≤ row breaks the sign condition.
	if err := tamper(func(ys []*big.Rat) { ys[0].SetInt64(-1) }); err == nil {
		t.Error("negative dual on a ≤ row certified")
	}
	if _, err := CertifyDual(p, sol.Duals[:1]); err == nil {
		t.Error("truncated dual vector certified")
	}
	if err := tamper(func(ys []*big.Rat) { ys[0] = nil }); err == nil {
		t.Error("nil dual certified")
	}
}

// TestSplittableThroughputBoundMatchesLP: the certified bound equals the
// splittable maximum throughput, at the root (all flows free) and at a
// fixed suffix.
func TestSplittableThroughputBoundMatchesLP(t *testing.T) {
	c := topology.MustClos(2)
	fs := example23Clos(c)
	ma := core.MiddleAssignment{1, 2, 1, 2, 1, 1}
	for _, fixedFrom := range []int{len(fs), 3, 0} {
		paths, err := PrefixPaths(c, fs, ma, fixedFrom)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := splittableMaxThroughput(c.Network(), fs, paths)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := SplittableThroughputBound(c.Network(), fs, paths)
		if err != nil {
			t.Fatal(err)
		}
		if bound.Cmp(opt) != 0 {
			t.Errorf("fixedFrom=%d: certified bound %s != LP optimum %s",
				fixedFrom, rational.String(bound), rational.String(opt))
		}
	}
}
