package core

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// example23 builds the flow collection of Example 2.3 (Figure 1) over C_2.
// Flow order: three type-1 flows (orange), two type-2 flows (blue), one
// type-3 flow (green).
func example23(c *topology.Clos) Collection {
	return NewCollection(
		c.Source(1, 2), c.Dest(1, 2), // type 1
		c.Source(1, 2), c.Dest(2, 1), // type 1
		c.Source(1, 2), c.Dest(2, 2), // type 1
		c.Source(2, 1), c.Dest(2, 1), // type 2
		c.Source(2, 2), c.Dest(2, 2), // type 2
		c.Source(1, 1), c.Dest(1, 1), // type 3
	)
}

func example23Macro(ms *topology.MacroSwitch) Collection {
	return NewCollection(
		ms.Source(1, 2), ms.Dest(1, 2),
		ms.Source(1, 2), ms.Dest(2, 1),
		ms.Source(1, 2), ms.Dest(2, 2),
		ms.Source(2, 1), ms.Dest(2, 1),
		ms.Source(2, 2), ms.Dest(2, 2),
		ms.Source(1, 1), ms.Dest(1, 1),
	)
}

func TestExample23MacroSwitch(t *testing.T) {
	ms := topology.MustMacroSwitch(2)
	fs := example23Macro(ms)
	if err := fs.Validate(ms.Network()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	a, err := MacroMaxMinFair(ms, fs)
	if err != nil {
		t.Fatalf("MacroMaxMinFair: %v", err)
	}
	want := rational.VecOf(1, 3, 1, 3, 1, 3, 2, 3, 2, 3, 1, 1)
	if !a.Equal(want) {
		t.Fatalf("macro allocation = %v, want %v", a, want)
	}
	r, _ := MacroRouting(ms, fs)
	if err := IsMaxMinFair(ms.Network(), fs, r, a); err != nil {
		t.Errorf("bottleneck property: %v", err)
	}
	if got, want := Throughput(a), rational.R(10, 3); got.Cmp(want) != 0 {
		t.Errorf("throughput = %s, want %s", rational.String(got), rational.String(want))
	}
}

func TestExample23ClosRoutings(t *testing.T) {
	c := topology.MustClos(2)
	fs := example23(c)
	if err := fs.Validate(c.Network()); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	tests := []struct {
		name string
		ma   MiddleAssignment
		want rational.Vec
	}{
		{
			// Figure 1a first routing: type-1 flow (s1.2, t2.1) on M1.
			name: "routing A",
			ma:   MiddleAssignment{2, 1, 2, 1, 2, 1},
			want: rational.VecOf(1, 3, 1, 3, 1, 3, 2, 3, 2, 3, 2, 3),
		},
		{
			// Second routing: (s1.2, t2.1) re-assigned to M2.
			name: "routing B",
			ma:   MiddleAssignment{2, 2, 2, 1, 2, 1},
			want: rational.VecOf(1, 3, 1, 3, 1, 3, 2, 3, 1, 3, 1, 1),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := ClosMaxMinFair(c, fs, tt.ma)
			if err != nil {
				t.Fatalf("ClosMaxMinFair: %v", err)
			}
			if !a.Equal(tt.want) {
				t.Fatalf("allocation = %v, want %v", a, tt.want)
			}
			r, _ := ClosRouting(c, fs, tt.ma)
			if err := IsMaxMinFair(c.Network(), fs, r, a); err != nil {
				t.Errorf("bottleneck property: %v", err)
			}
		})
	}
}

// TestExample23Ordering reproduces the lexicographic ordering asserted at
// the end of Example 2.3: macro ≻ routing A ≻ routing B.
func TestExample23Ordering(t *testing.T) {
	c := topology.MustClos(2)
	ms := topology.MustMacroSwitch(2)
	fs := example23(c)

	macro, err := MacroMaxMinFair(ms, example23Macro(ms))
	if err != nil {
		t.Fatal(err)
	}
	aA, err := ClosMaxMinFair(c, fs, MiddleAssignment{2, 1, 2, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	aB, err := ClosMaxMinFair(c, fs, MiddleAssignment{2, 2, 2, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rational.LexCompareSorted(aA, macro) >= 0 {
		t.Error("routing A should be lex-below macro")
	}
	if rational.LexCompareSorted(aB, aA) >= 0 {
		t.Error("routing B should be lex-below routing A")
	}
}

// TestExample33 reproduces Example 3.3 / Figure 2 in MS_1: the max-min
// fair allocation assigns 1/2 to all three flows, throughput 3/2, versus
// maximum throughput 2.
func TestExample33(t *testing.T) {
	ms := topology.MustMacroSwitch(1)
	fs := NewCollection(
		ms.Source(1, 1), ms.Dest(1, 1), // type 1
		ms.Source(2, 1), ms.Dest(2, 1), // type 1
		ms.Source(2, 1), ms.Dest(1, 1), // type 2
	)
	a, err := MacroMaxMinFair(ms, fs)
	if err != nil {
		t.Fatal(err)
	}
	want := rational.VecOf(1, 2, 1, 2, 1, 2)
	if !a.Equal(want) {
		t.Fatalf("allocation = %v, want %v", a, want)
	}
	if got := Throughput(a); got.Cmp(rational.R(3, 2)) != 0 {
		t.Errorf("throughput = %s, want 3/2", rational.String(got))
	}
}

func TestCollectionHelpers(t *testing.T) {
	c := topology.MustClos(2)
	fs := Collection{}
	fs = fs.Add(c.Source(1, 1), c.Dest(1, 1), 3)
	fs = fs.Add(c.Source(2, 1), c.Dest(1, 1), 1)
	if len(fs) != 4 {
		t.Fatalf("len = %d", len(fs))
	}
	if got := fs.PerSource()[c.Source(1, 1)]; got != 3 {
		t.Errorf("PerSource = %d, want 3", got)
	}
	if got := fs.PerDestination()[c.Dest(1, 1)]; got != 4 {
		t.Errorf("PerDestination = %d, want 4", got)
	}
	if fs.String() == "" || fs.Describe(c.Network()) == "" {
		t.Error("empty description")
	}
}

func TestCollectionValidate(t *testing.T) {
	c := topology.MustClos(1)
	good := NewCollection(c.Source(1, 1), c.Dest(2, 1))
	if err := good.Validate(c.Network()); err != nil {
		t.Errorf("valid collection rejected: %v", err)
	}
	bad := Collection{{Src: c.Input(1), Dst: c.Dest(1, 1)}}
	if err := bad.Validate(c.Network()); err == nil {
		t.Error("switch as source accepted")
	}
	bad2 := Collection{{Src: c.Source(1, 1), Dst: topology.NodeID(10_000)}}
	if err := bad2.Validate(c.Network()); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestNewCollectionPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCollection(topology.NodeID(1))
}

func TestRoutingValidate(t *testing.T) {
	c := topology.MustClos(2)
	fs := example23(c)
	r, err := ClosRouting(c, fs, MiddleAssignment{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(c.Network(), fs); err != nil {
		t.Errorf("valid routing rejected: %v", err)
	}
	if err := r[:3].Validate(c.Network(), fs); err == nil {
		t.Error("short routing accepted")
	}
	// Swap two paths of flows with different endpoints: now invalid.
	bad := make(Routing, len(r))
	copy(bad, r)
	bad[0], bad[5] = bad[5], bad[0]
	if err := bad.Validate(c.Network(), fs); err == nil {
		t.Error("mismatched paths accepted")
	}
}

func TestClosRoutingErrors(t *testing.T) {
	c := topology.MustClos(2)
	fs := example23(c)
	if _, err := ClosRouting(c, fs, MiddleAssignment{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ClosRouting(c, fs, MiddleAssignment{1, 1, 1, 1, 1, 9}); err == nil {
		t.Error("out-of-range middle accepted")
	}
}

func TestUniformAssignment(t *testing.T) {
	ma := UniformAssignment(4, 2)
	if len(ma) != 4 {
		t.Fatalf("len = %d", len(ma))
	}
	for _, m := range ma {
		if m != 2 {
			t.Errorf("middle = %d, want 2", m)
		}
	}
	cp := ma.Copy()
	cp[0] = 7
	if ma[0] != 2 {
		t.Error("Copy aliases")
	}
}

func TestIsFeasible(t *testing.T) {
	c := topology.MustClos(1)
	fs := NewCollection(
		c.Source(1, 1), c.Dest(2, 1),
		c.Source(2, 1), c.Dest(2, 1),
	)
	r, err := ClosRouting(c, fs, MiddleAssignment{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	net := c.Network()
	if err := IsFeasible(net, fs, r, rational.VecOf(1, 2, 1, 2)); err != nil {
		t.Errorf("feasible allocation rejected: %v", err)
	}
	// O2->t2.1 carries both flows: total 3/2 > 1.
	if err := IsFeasible(net, fs, r, rational.VecOf(1, 1, 1, 2)); err == nil {
		t.Error("infeasible allocation accepted")
	}
	if err := IsFeasible(net, fs, r, rational.VecOf(-1, 2, 1, 2)); err == nil {
		t.Error("negative rate accepted")
	}
	if err := IsFeasible(net, fs, r, rational.VecOf(1, 2)); err == nil {
		t.Error("short allocation accepted")
	}
}

func TestIsMaxMinFairRejectsSuboptimal(t *testing.T) {
	c := topology.MustClos(1)
	fs := NewCollection(
		c.Source(1, 1), c.Dest(2, 1),
		c.Source(2, 1), c.Dest(2, 1),
	)
	r, err := ClosRouting(c, fs, MiddleAssignment{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	net := c.Network()
	// Feasible but not max-min fair: both flows could rise to 1/2.
	if err := IsMaxMinFair(net, fs, r, rational.VecOf(1, 4, 1, 4)); err == nil {
		t.Error("underallocated rates accepted as max-min fair")
	}
	// Unequal split saturating the shared link: flow 0 has no bottleneck
	// (its rate 1/4 is not the maximum on the saturated link).
	if err := IsMaxMinFair(net, fs, r, rational.VecOf(1, 4, 3, 4)); err == nil {
		t.Error("unfair saturating rates accepted as max-min fair")
	}
	if err := IsMaxMinFair(net, fs, r, rational.VecOf(1, 2, 1, 2)); err != nil {
		t.Errorf("max-min fair rates rejected: %v", err)
	}
}

func TestMaxMinFairEmptyCollection(t *testing.T) {
	c := topology.MustClos(1)
	a, err := MaxMinFair(c.Network(), nil, nil)
	if err != nil {
		t.Fatalf("MaxMinFair: %v", err)
	}
	if len(a) != 0 {
		t.Errorf("allocation = %v, want empty", a)
	}
}

func TestMaxMinFairUnboundedFlow(t *testing.T) {
	net := topology.New("unbounded")
	s := net.AddNode(topology.KindSource, "s")
	d := net.AddNode(topology.KindDestination, "t")
	id, err := net.AddUnboundedLink(s, d)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewCollection(s, d)
	r := Routing{topology.Path{id}}
	if _, err := MaxMinFair(net, fs, r); !errors.Is(err, ErrUnboundedFlow) {
		t.Errorf("err = %v, want ErrUnboundedFlow", err)
	}
}

// randomInstance builds a random flow collection and routing over C_n.
func randomInstance(rng *rand.Rand, n, numFlows int) (*topology.Clos, Collection, Routing) {
	c := topology.MustClos(n)
	fs := make(Collection, 0, numFlows)
	ma := make(MiddleAssignment, 0, numFlows)
	for f := 0; f < numFlows; f++ {
		si, sj := rng.Intn(2*n)+1, rng.Intn(n)+1
		di, dj := rng.Intn(2*n)+1, rng.Intn(n)+1
		fs = fs.Add(c.Source(si, sj), c.Dest(di, dj), 1)
		ma = append(ma, rng.Intn(n)+1)
	}
	r, err := ClosRouting(c, fs, ma)
	if err != nil {
		panic(err)
	}
	return c, fs, r
}

// TestWaterfillSatisfiesBottleneckProperty cross-checks the water-filler
// against the independent Lemma 2.2 characterization on random instances.
func TestWaterfillSatisfiesBottleneckProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(3) + 1
		c, fs, r := randomInstance(rng, n, rng.Intn(12)+1)
		a, err := MaxMinFair(c.Network(), fs, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := IsMaxMinFair(c.Network(), fs, r, a); err != nil {
			t.Fatalf("trial %d: bottleneck property violated: %v", trial, err)
		}
	}
}

// TestWaterfillDominatesFeasibleAllocations checks Definition 2.1(2): the
// sorted max-min fair vector lexicographically dominates the sorted vector
// of any feasible allocation (here: random scaled-down copies).
func TestWaterfillDominatesFeasibleAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		c, fs, r := randomInstance(rng, 2, 8)
		a, err := MaxMinFair(c.Network(), fs, r)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			other := a.Copy()
			// Scale each rate by a random factor in {0, 1/4, 1/2, 3/4, 1}.
			for i := range other {
				other[i] = rational.Mul(other[i], rational.R(int64(rng.Intn(5)), 4))
			}
			if err := IsFeasible(c.Network(), fs, r, other); err != nil {
				t.Fatalf("scaled allocation infeasible: %v", err)
			}
			if rational.LexCompareSorted(a, other) < 0 {
				t.Fatalf("max-min fair allocation dominated by %v", other)
			}
		}
	}
}

func TestLinkLoads(t *testing.T) {
	c := topology.MustClos(1)
	fs := NewCollection(
		c.Source(1, 1), c.Dest(2, 1),
		c.Source(2, 1), c.Dest(2, 1),
	)
	r, err := ClosRouting(c, fs, MiddleAssignment{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	loads := LinkLoads(c.Network(), r, rational.VecOf(1, 2, 1, 3))
	lastHop, ok := c.Network().LinkBetween(c.Output(2), c.Dest(2, 1))
	if !ok {
		t.Fatal("missing link")
	}
	if got := loads[lastHop]; got.Cmp(rational.R(5, 6)) != 0 {
		t.Errorf("load = %s, want 5/6", rational.String(got))
	}
}

func TestThroughputAndLexLess(t *testing.T) {
	a := rational.VecOf(1, 2, 1, 2)
	b := rational.VecOf(1, 3, 1, 1)
	if Throughput(a).Cmp(big.NewRat(1, 1)) != 0 {
		t.Error("throughput of [1/2,1/2] should be 1")
	}
	// sorted a = [1/2,1/2], sorted b = [1/3,1]: b < a lexicographically.
	if rational.LexCompareSorted(b, a) >= 0 || rational.LexCompareSorted(a, b) <= 0 {
		t.Error("LexCompareSorted disagrees with sorted lexicographic order")
	}
}

func TestFlowsOnLinks(t *testing.T) {
	c := topology.MustClos(1)
	fs := NewCollection(
		c.Source(1, 1), c.Dest(2, 1),
		c.Source(2, 1), c.Dest(2, 1),
	)
	r, err := ClosRouting(c, fs, MiddleAssignment{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	on := FlowsOnLinks(c.Network(), r)
	lastHop, _ := c.Network().LinkBetween(c.Output(2), c.Dest(2, 1))
	if got := on[lastHop]; len(got) != 2 {
		t.Errorf("flows on shared last hop = %v, want 2 flows", got)
	}
	firstHop, _ := c.Network().LinkBetween(c.Source(1, 1), c.Input(1))
	if got := on[firstHop]; len(got) != 1 || got[0] != 0 {
		t.Errorf("flows on first hop = %v, want [0]", got)
	}
}
