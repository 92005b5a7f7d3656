package search

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

func TestLexMaxMinExample23(t *testing.T) {
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	res, err := LexMaxMin(in.Clos, in.Flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The lex-max-min sorted vector of Example 2.3 is the witness
	// routing's: [1/3, 1/3, 1/3, 2/3, 2/3, 2/3].
	want := rational.VecOf(1, 3, 1, 3, 1, 3, 2, 3, 2, 3, 2, 3)
	if got := res.Allocation.SortedCopy(); !got.Equal(want) {
		t.Errorf("lex-max-min sorted = %v, want %v", got, want)
	}
	// The default canonical enumeration visits the 32 middle-relabeling
	// orbit representatives of the 2^6 = 64 routings.
	if res.States != 32 {
		t.Errorf("states = %d, want 32", res.States)
	}
	// The witness routing must itself be lex-optimal.
	wa, err := core.ClosMaxMinFair(in.Clos, in.Flows, in.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if rational.LexCompareSorted(wa, res.Allocation) != 0 {
		t.Errorf("witness sorted %v differs from optimum %v", wa.SortedCopy(), res.Allocation.SortedCopy())
	}
}

// TestLexMaxMinCanonicalAgrees: the default symmetry-canonical
// enumeration returns the bit-identical assignment and allocation as the
// full-space scan — not merely an equivalent optimum — while visiting
// strictly fewer states.
func TestLexMaxMinCanonicalAgrees(t *testing.T) {
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	full, err := LexMaxMin(in.Clos, in.Flows, Options{FullSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := LexMaxMin(in.Clos, in.Flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssignment(full.Assignment, canon.Assignment) {
		t.Errorf("canonicalization changed the incumbent assignment: %v vs %v",
			canon.Assignment, full.Assignment)
	}
	if !full.Allocation.Equal(canon.Allocation) {
		t.Errorf("canonicalization changed the optimum: %v vs %v",
			canon.Allocation, full.Allocation)
	}
	if canon.States >= full.States {
		t.Errorf("canonicalization did not reduce states: %d vs %d", canon.States, full.States)
	}
}

func TestThroughputMaxMinExample23(t *testing.T) {
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ThroughputMaxMin(in.Clos, in.Flows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	macroT := core.Throughput(in.MacroRates)
	gotT := core.Throughput(res.Allocation)
	// Theorem 5.4 upper bound: T^T-MmF ≤ 2 · T^MmF(macro).
	if gotT.Cmp(rational.Mul(rational.Int(2), macroT)) > 0 {
		t.Errorf("throughput %s exceeds 2x macro %s", rational.String(gotT), rational.String(macroT))
	}
	// It must be at least the witness routing's throughput (3).
	if gotT.Cmp(rational.Int(3)) < 0 {
		t.Errorf("throughput %s below witness throughput 3", rational.String(gotT))
	}
}

func TestSearchEmptyCollection(t *testing.T) {
	c := topology.MustClos(2)
	res, err := LexMaxMin(c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 0 || len(res.Allocation) != 0 {
		t.Errorf("unexpected result %+v", res)
	}
}

func TestSearchStateCap(t *testing.T) {
	c := topology.MustClos(3)
	fs := core.Collection{}
	for i := 0; i < 20; i++ {
		fs = fs.Add(c.Source(1, 1), c.Dest(1, 1), 1)
	}
	_, err := LexMaxMin(c, fs, Options{MaxStates: 1000})
	if !errors.Is(err, ErrTooManyStates) {
		t.Errorf("err = %v, want ErrTooManyStates", err)
	}
}

func TestImprovingNeighborAndHillClimb(t *testing.T) {
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	// The witness routing is globally optimal, hence locally optimal.
	ok, err := IsLocalLexOptimal(in.Clos, in.Flows, in.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("witness routing should be locally lex-optimal")
	}
	// Routing B of Example 2.3 is dominated; a neighbor must exist.
	routingB := core.MiddleAssignment{2, 2, 2, 1, 2, 1}
	nb, err := ImprovingNeighbor(in.Clos, in.Flows, routingB)
	if err != nil {
		t.Fatal(err)
	}
	if nb == nil {
		t.Fatal("routing B should have an improving neighbor")
	}
	// Hill climbing from the all-ones routing must terminate at a local
	// optimum at least as good as where it started.
	start := core.UniformAssignment(len(in.Flows), 1)
	startAlloc, err := core.ClosMaxMinFair(in.Clos, in.Flows, start)
	if err != nil {
		t.Fatal(err)
	}
	res, moves, err := hillClimbLex(in.Clos, in.Flows, start, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rational.LexCompareSorted(res.Allocation, startAlloc) < 0 {
		t.Error("hill climb ended below its start")
	}
	ok, err = IsLocalLexOptimal(in.Clos, in.Flows, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("hill climb result after %d moves is not locally optimal", moves)
	}
}

func TestHillClimbMoveCap(t *testing.T) {
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	start := core.MiddleAssignment{2, 2, 2, 1, 2, 1} // known improvable
	if _, _, err := hillClimbLex(in.Clos, in.Flows, start, -1); err != nil {
		t.Errorf("default cap failed: %v", err)
	}
}

// TestNeighborScanMatchesReference: on a sample of every equivalence
// instance's assignments, ImprovingNeighbor and one HillClimbRelative
// move take exactly the deviation a plain scan of reference fills
// takes — the first in (flow, middle) order whose value strictly beats
// the current one — so neither the lex Rat64 screen nor the shared
// block evaluator changes which neighbor wins.
func TestNeighborScanMatchesReference(t *testing.T) {
	for name, in := range equivalenceInstances(t) {
		n, nf := in.c.Size(), len(in.fs)
		target := make(rational.Vec, nf)
		for fi := range target {
			target[fi] = rational.R(int64(fi%3+1), 3)
		}
		lex := func(a core.Allocation) rational.Vec { return a.SortedCopy() }
		rel := func(a core.Allocation) rational.Vec { return rational.Vec{MinRatio(a, target)} }
		// first returns ma with its first improving deviation under
		// value applied, that deviation's allocation, and whether one
		// exists.
		first := func(ma core.MiddleAssignment, value func(core.Allocation) rational.Vec) (core.MiddleAssignment, core.Allocation, bool) {
			base, err := referenceClos(in.c, in.fs, ma)
			if err != nil {
				t.Fatal(err)
			}
			cand := ma.Copy()
			for fi, orig := range ma {
				for m := 1; m <= n; m++ {
					if m == orig {
						continue
					}
					cand[fi] = m
					a, err := referenceClos(in.c, in.fs, cand)
					if err != nil {
						t.Fatal(err)
					}
					if rational.LexCompare(value(a), value(base)) > 0 {
						return cand, a, true
					}
				}
				cand[fi] = orig
			}
			return cand, base, false
		}
		rank := 0
		err := enumerate(n, nf, Options{FullSpace: true}, func(ma core.MiddleAssignment) bool {
			if rank++; rank%7 != 1 {
				return true
			}
			ma = ma.Copy()
			want, wantA, ok := first(ma, lex)
			nb, err := ImprovingNeighbor(in.c, in.fs, ma)
			if err != nil {
				t.Fatal(err)
			}
			if (nb != nil) != ok || ok && (want[nb.Flow] != nb.Middle || ma[nb.Flow] == nb.Middle || !nb.Allocation.Equal(wantA)) {
				t.Fatalf("%s %v: ImprovingNeighbor %+v, reference scan moves to %v (improving: %v)", name, ma, nb, want, ok)
			}
			want, wantA, ok = first(ma, rel)
			res, err := HillClimbRelative(in.c, in.fs, target, ma, 1)
			if err != nil {
				t.Fatal(err)
			}
			moves := 0
			if ok {
				moves = 1
			}
			if !sameAssignment(res.Assignment, want) || res.States != moves || !res.Allocation.Equal(wantA) {
				t.Fatalf("%s %v: HillClimbRelative moved to %v in %d moves, reference scan to %v in %d", name, ma, res.Assignment, res.States, want, moves)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// hillClimbLex repeatedly applies improving single-flow deviations
// until none exists, returning the locally lex-optimal routing reached
// and the number of moves taken. maxMoves guards against long walks (0
// means 1000).
func hillClimbLex(c topology.Fabric, fs core.Collection, start core.MiddleAssignment, maxMoves int) (*Result, int, error) {
	if maxMoves <= 0 {
		maxMoves = 1000
	}
	obj, err := lexObjective(c, fs, Options{})
	if err != nil {
		return nil, 0, err
	}
	ma := start.Copy()
	nbs, a, err := newNeighbors(c, fs, obj, ma)
	if err != nil {
		return nil, 0, err
	}
	for moves := 0; moves < maxMoves; moves++ {
		nb, err := nbs.improve(ma)
		if err != nil {
			return nil, moves, err
		}
		if nb == nil {
			return &Result{Assignment: ma, Allocation: a, States: moves}, moves, nil
		}
		ma[nb.Flow], a = nb.Middle, nb.Allocation
	}
	return nil, maxMoves, fmt.Errorf("search: hill climb exceeded %d moves", maxMoves)
}

func TestFeasibleRoutingWitness(t *testing.T) {
	// Example 2.3 rates for routing A are replicable by construction.
	in, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	ma, ok, err := FeasibleRouting(context.Background(), in.Clos, in.Flows, in.WitnessRates, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("witness rates should be routable")
	}
	r, err := core.ClosRouting(in.Clos, in.Flows, ma)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IsFeasible(in.Clos.Network(), in.Flows, r, in.WitnessRates); err != nil {
		t.Errorf("returned witness infeasible: %v", err)
	}
}

// TestFeasibleRoutingTheorem42 is the computational heart of Theorem 4.2:
// the macro-switch max-min rates of the adversarial collection admit no
// feasible routing in C_n.
func TestFeasibleRoutingTheorem42(t *testing.T) {
	for _, n := range []int{3, 4} {
		in, err := adversary.Theorem42(n)
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := FeasibleRouting(context.Background(), in.Clos, in.Flows, in.MacroRates, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ok {
			t.Errorf("n=%d: macro rates reported routable, contradicting Theorem 4.2", n)
		}
	}
}

// TestFeasibleRoutingDropType3 sanity-checks the refuter: removing the
// type-3 flow makes the Theorem 4.2 demands routable (the witness
// structure of Claim 4.5 exists).
func TestFeasibleRoutingDropType3(t *testing.T) {
	in, err := adversary.Theorem42(3)
	if err != nil {
		t.Fatal(err)
	}
	t3 := in.FlowsOfType(adversary.Type3)
	if len(t3) != 1 {
		t.Fatalf("expected 1 type-3 flow, got %d", len(t3))
	}
	fs := append(core.Collection{}, in.Flows[:t3[0]]...)
	demands := append(rational.Vec{}, in.MacroRates[:t3[0]]...)
	ma, ok, err := FeasibleRouting(context.Background(), in.Clos, fs, demands, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("type-1/2 rates should be routable without the type-3 flow")
	}
	r, err := core.ClosRouting(in.Clos, fs, ma)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IsFeasible(in.Clos.Network(), fs, r, demands); err != nil {
		t.Errorf("witness infeasible: %v", err)
	}
}

// TestForEachFeasibleRoutingClaim45 verifies Claim 4.5's conditions on
// actual feasible routings of the type-1/type-2 sub-collection of the
// Theorem 4.3 instance: (1) per input switch, each middle receives all
// n+1-copy type-1 groups or the whole type-2 bundle; (2) type-2.b flows
// spread evenly, n-1 per middle.
func TestForEachFeasibleRoutingClaim45(t *testing.T) {
	n := 3
	in, err := adversary.Theorem43(n)
	if err != nil {
		t.Fatal(err)
	}
	t3 := in.FlowsOfType(adversary.Type3)[0]
	fs := append(core.Collection{}, in.Flows[:t3]...)
	demands := append(rational.Vec{}, in.MacroRates[:t3]...)

	visited := 0
	err = ForEachFeasibleRouting(in.Clos, fs, demands, 2_000_000, func(ma core.MiddleAssignment) bool {
		visited++
		// Condition 2: type-2.b flows per middle == n-1.
		countB := make([]int, n+1)
		for _, fi := range in.FlowsOfType(adversary.Type2b) {
			countB[ma[fi]]++
		}
		for m := 1; m <= n; m++ {
			if countB[m] != n-1 {
				t.Errorf("feasible routing with %d type-2.b flows on M%d, want %d", countB[m], m, n-1)
				return false
			}
		}
		// Condition 1: per (input, middle), the type-1/type-2 counts are
		// (0, n) or (n+1, 0).
		type key struct{ i, m int }
		c1 := make(map[key]int)
		c2 := make(map[key]int)
		for fi := range fs {
			i, _ := in.Clos.InputOf(fs[fi].Src)
			k := key{i, ma[fi]}
			if in.Types[fi] == adversary.Type1 {
				c1[k]++
			} else {
				c2[k]++
			}
		}
		for i := 1; i <= n; i++ {
			for m := 1; m <= n; m++ {
				k := key{i, m}
				x, y := c1[k], c2[k]
				if !(x == 0 && y == n) && !(x == n+1 && y == 0) {
					t.Errorf("feasible routing with (x,y)=(%d,%d) at input %d middle %d", x, y, i, m)
					return false
				}
			}
		}
		return visited < 500 // sample a bounded number of routings
	})
	if err != nil && !errors.Is(err, ErrSearchBudget) {
		t.Fatal(err)
	}
	if visited == 0 {
		t.Fatal("no feasible routing visited; Claim 4.5 premise missing")
	}
}

func TestFeasibleRoutingServerOverload(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.Collection{}.
		Add(c.Source(1, 1), c.Dest(1, 1), 1).
		Add(c.Source(1, 1), c.Dest(2, 1), 1)
	// Total demand 3/2 on the shared source link: infeasible regardless
	// of routing.
	_, ok, err := FeasibleRouting(context.Background(), c, fs, rational.VecOf(1, 1, 1, 2), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("server-overloaded demands reported routable")
	}
}

func TestFeasibleRoutingErrors(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.NewCollection(c.Source(1, 1), c.Dest(1, 1))
	if _, _, err := FeasibleRouting(context.Background(), c, fs, rational.Vec{}, 0, 0); err == nil {
		t.Error("demand length mismatch accepted")
	}
	if _, _, err := FeasibleRouting(context.Background(), c, fs, rational.VecOf(-1, 2), 0, 0); err == nil {
		t.Error("negative demand accepted")
	}
	bad := core.Collection{{Src: c.Input(1), Dst: c.Dest(1, 1)}}
	if _, _, err := FeasibleRouting(context.Background(), c, bad, rational.VecOf(1, 2), 0, 0); err == nil {
		t.Error("non-server source accepted")
	}
}

func TestFeasibleRoutingBudget(t *testing.T) {
	in, err := adversary.Theorem43(3)
	if err != nil {
		t.Fatal(err)
	}
	t3 := in.FlowsOfType(adversary.Type3)[0]
	fs := append(core.Collection{}, in.Flows[:t3]...)
	demands := append(rational.Vec{}, in.MacroRates[:t3]...)
	err = ForEachFeasibleRouting(in.Clos, fs, demands, 10, func(core.MiddleAssignment) bool { return true })
	if !errors.Is(err, ErrSearchBudget) {
		t.Errorf("err = %v, want ErrSearchBudget", err)
	}
}

// TestThroughputMaxMinEarlyStop: on a permutation workload every flow
// can reach rate 1 simultaneously, so the matching upper bound is hit
// early and the search stops before exhausting the routing space.
func TestThroughputMaxMinEarlyStop(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.Collection{}
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			fs = fs.Add(c.Source(i, j), c.Dest(i+2, j), 1)
		}
	}
	res, err := ThroughputMaxMin(c, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Throughput(res.Allocation); got.Cmp(rational.Int(4)) != 0 {
		t.Fatalf("throughput = %s, want 4", rational.String(got))
	}
	// The canonical space has Σ_{k≤2} S(4,k) = 8 states; the matching
	// bound must stop the walk before exhausting even that.
	if res.States >= 8 {
		t.Errorf("early stop did not trigger: %d states of 8", res.States)
	}
}
