package search

import (
	"context"

	"testing"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

func TestRelativeMaxMinExample23(t *testing.T) {
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RelativeMaxMin(in.Clos, in.Flows, in.MacroRates, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The lex-max-min routing (routing A) achieves min ratio 2/3 — the
	// type-3 flow drops from 1 to 2/3 — but relative-max-min fairness
	// does strictly better: exhaustive search finds a routing whose
	// worst-off flow keeps 3/4 of its macro rate, supporting the §7 R2
	// proposal that relative fairness is the better objective for
	// preserving the macro-switch abstraction. (No routing reaches ratio
	// 1: the macro rates are not replicable.)
	if res.MinRatio.Cmp(rational.R(3, 4)) != 0 {
		t.Errorf("optimal min ratio = %s, want 3/4", rational.String(res.MinRatio))
	}
	// 32 canonical representatives of the 2^6 = 64 routings.
	if res.States != 32 {
		t.Errorf("states = %d, want 32", res.States)
	}
	// Cross-check: the lex-max-min routing itself sits at 2/3.
	wa, err := core.ClosMaxMinFair(in.Clos, in.Flows, in.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if got := MinRatio(wa, in.MacroRates); got.Cmp(rational.R(2, 3)) != 0 {
		t.Errorf("lex witness min ratio = %s, want 2/3", rational.String(got))
	}
}

func TestRelativeMaxMinPerfectReplication(t *testing.T) {
	// A single flow replicates its macro rate exactly: min ratio 1.
	c := topology.MustClos(2)
	fs := core.NewCollection(c.Source(1, 1), c.Dest(2, 1))
	res, err := RelativeMaxMin(c, fs, rational.VecOf(1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinRatio.Cmp(rational.One()) != 0 {
		t.Errorf("min ratio = %s, want 1", rational.String(res.MinRatio))
	}
}

func TestRelativeMaxMinEmptyAndErrors(t *testing.T) {
	c := topology.MustClos(2)
	res, err := RelativeMaxMin(c, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinRatio.Cmp(rational.One()) != 0 {
		t.Errorf("empty min ratio = %s", rational.String(res.MinRatio))
	}
	fs := core.NewCollection(c.Source(1, 1), c.Dest(1, 1))
	if _, err := RelativeMaxMin(c, fs, rational.Vec{}, Options{}); err == nil {
		t.Error("target length mismatch accepted")
	}
	if _, err := HillClimbRelative(c, fs, rational.Vec{}, core.MiddleAssignment{1}, 0); err == nil {
		t.Error("target length mismatch accepted by hill climb")
	}
}

func TestRelativeMaxMinZeroTargetSkipped(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.NewCollection(
		c.Source(1, 1), c.Dest(2, 1),
		c.Source(1, 2), c.Dest(2, 2),
	)
	// Second flow has target 0: it must not poison the ratio.
	res, err := RelativeMaxMin(c, fs, rational.VecOf(1, 1, 0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinRatio.Cmp(rational.One()) != 0 {
		t.Errorf("min ratio = %s, want 1", rational.String(res.MinRatio))
	}
}

func TestHillClimbRelativeReachesExhaustiveOptimum(t *testing.T) {
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := RelativeMaxMin(in.Clos, in.Flows, in.MacroRates, Options{})
	if err != nil {
		t.Fatal(err)
	}
	climbed, err := HillClimbRelative(in.Clos, in.Flows, in.MacroRates,
		core.UniformAssignment(len(in.Flows), 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hill climbing is a heuristic; on this small instance it should
	// reach the global optimum 2/3, and must never exceed it.
	if climbed.MinRatio.Cmp(exhaustive.MinRatio) > 0 {
		t.Fatal("hill climb exceeded the exhaustive optimum")
	}
	if climbed.MinRatio.Cmp(exhaustive.MinRatio) != 0 {
		t.Errorf("hill climb reached %s, exhaustive %s",
			rational.String(climbed.MinRatio), rational.String(exhaustive.MinRatio))
	}
}

// TestRelativeVsLexOnStarvationFamily quantifies the §7 R2 discussion on
// the n=3 starvation instance: the lex-max-min witness leaves the type-3
// flow at ratio 1/3, while a relative-max-min oriented routing can trade
// other flows' surplus to raise the worst-off flow's ratio.
func TestRelativeVsLexOnStarvationFamily(t *testing.T) {
	in, err := adversary.Theorem43(3)
	if err != nil {
		t.Fatal(err)
	}
	// Ratio profile of the lex-max-min witness routing.
	wa, err := core.ClosMaxMinFair(in.Clos, in.Flows, in.Witness)
	if err != nil {
		t.Fatal(err)
	}
	lexRatio := MinRatio(wa, in.MacroRates)
	if lexRatio.Cmp(rational.R(1, 3)) != 0 {
		t.Fatalf("lex witness min ratio = %s, want 1/3", rational.String(lexRatio))
	}
	// Hill climbing on the relative objective from the witness must not
	// do worse, and whatever it achieves stays a valid allocation.
	res, err := HillClimbRelative(in.Clos, in.Flows, in.MacroRates, in.Witness, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinRatio.Cmp(lexRatio) < 0 {
		t.Errorf("relative climb ended below the lex witness: %s", rational.String(res.MinRatio))
	}
	r, err := core.ClosRouting(in.Clos, in.Flows, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IsMaxMinFair(in.Clos.Network(), in.Flows, r, res.Allocation); err != nil {
		t.Errorf("climbed allocation invalid: %v", err)
	}
}

func TestMinMiddlesToRouteTheorem42(t *testing.T) {
	in, err := adversary.Theorem42(3)
	if err != nil {
		t.Fatal(err)
	}
	// With n = 3 middles the macro rates are unroutable (Theorem 4.2);
	// the probe must find some m > 3 within the conjectured bound
	// 2·serversPerToR − 1 = 5.
	m, ok, err := MinMiddlesToRoute(context.Background(), in.Clos, in.Flows, in.MacroRates, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no middle count up to 5 suffices; conjecture bound violated")
	}
	if m <= 3 {
		t.Errorf("min middles = %d, but m=3 is infeasible by Theorem 4.2", m)
	}
	t.Logf("Theorem 4.2 (n=3) demands become routable at m = %d middles", m)
}

func TestMinMiddlesToRouteTrivial(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.NewCollection(c.Source(1, 1), c.Dest(2, 1))
	m, ok, err := MinMiddlesToRoute(context.Background(), c, fs, rational.VecOf(1, 1), 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || m != 1 {
		t.Errorf("single unit flow needs m=%d (ok=%v), want 1", m, ok)
	}
}

func TestMinMiddlesToRouteInsufficient(t *testing.T) {
	c := topology.MustClos(2)
	// Two unit flows from the same input switch need two middles; cap the
	// probe at 1.
	fs := core.NewCollection(
		c.Source(1, 1), c.Dest(2, 1),
		c.Source(1, 2), c.Dest(3, 1),
	)
	m, ok, err := MinMiddlesToRoute(context.Background(), c, fs, rational.VecOf(1, 1, 1, 1), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok || m != 0 {
		t.Errorf("got m=%d ok=%v, want not routable within 1 middle", m, ok)
	}
}

func TestMinMiddlesToRouteErrors(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.NewCollection(c.Source(1, 1), c.Dest(2, 1))
	if _, _, err := MinMiddlesToRoute(context.Background(), c, fs, rational.Vec{}, 2, 0, 0); err == nil {
		t.Error("demand mismatch accepted")
	}
	if _, _, err := MinMiddlesToRoute(context.Background(), c, fs, rational.VecOf(1, 1), 0, 0, 0); err == nil {
		t.Error("maxMiddles=0 accepted")
	}
}
