package core

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// quickInstance decodes a compact byte-encoded instance over C_2: each
// flow is three bytes (source server, destination server, middle). Keeps
// quick.Check generators simple and the shrink space small.
func quickInstance(bytes []byte) (*topology.Clos, Collection, MiddleAssignment) {
	c := topology.MustClos(2)
	fs := Collection{}
	var ma MiddleAssignment
	for i := 0; i+2 < len(bytes) && len(fs) < 10; i += 3 {
		si := int(bytes[i]%4) + 1
		sj := int(bytes[i]%2) + 1
		di := int(bytes[i+1]%4) + 1
		dj := int(bytes[i+1]%2) + 1
		fs = fs.Add(c.Source(si, sj), c.Dest(di, dj), 1)
		ma = append(ma, int(bytes[i+2]%2)+1)
	}
	return c, fs, ma
}

// TestQuickWaterfillBottleneckProperty: every water-filled allocation
// satisfies Lemma 2.2 on arbitrary byte-encoded instances.
func TestQuickWaterfillBottleneckProperty(t *testing.T) {
	f := func(bytes []byte) bool {
		c, fs, ma := quickInstance(bytes)
		if len(fs) == 0 {
			return true
		}
		r, err := ClosRouting(c, fs, ma)
		if err != nil {
			return false
		}
		a, err := MaxMinFair(c.Network(), fs, r)
		if err != nil {
			return false
		}
		return IsMaxMinFair(c.Network(), fs, r, a) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickWaterfillPermutationEquivariance: permuting the flows (and
// their routing) permutes the rates identically — the allocator must not
// depend on flow order.
func TestQuickWaterfillPermutationEquivariance(t *testing.T) {
	f := func(bytes []byte, seed int64) bool {
		c, fs, ma := quickInstance(bytes)
		if len(fs) < 2 {
			return true
		}
		r, err := ClosRouting(c, fs, ma)
		if err != nil {
			return false
		}
		a, err := MaxMinFair(c.Network(), fs, r)
		if err != nil {
			return false
		}
		perm := rand.New(rand.NewSource(seed)).Perm(len(fs))
		pfs := make(Collection, len(fs))
		pr := make(Routing, len(fs))
		for i, j := range perm {
			pfs[i] = fs[j]
			pr[i] = r[j]
		}
		pa, err := MaxMinFair(c.Network(), pfs, pr)
		if err != nil {
			return false
		}
		want := make(rational.Vec, len(fs))
		for i, j := range perm {
			want[i] = a[j]
		}
		return pa.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickWaterfillMinRateMonotonicity: adding one more flow never
// increases the minimum max-min fair rate. (Per-flow rates are NOT
// monotone — a new flow can throttle a competitor on a different link
// and thereby raise a third flow's rate — so the invariant holds only
// for the minimum, i.e. the first water-filling freeze level.)
func TestQuickWaterfillMinRateMonotonicity(t *testing.T) {
	f := func(bytes []byte, extra [3]byte) bool {
		c, fs, ma := quickInstance(bytes)
		if len(fs) == 0 {
			return true
		}
		r, err := ClosRouting(c, fs, ma)
		if err != nil {
			return false
		}
		a, err := MaxMinFair(c.Network(), fs, r)
		if err != nil {
			return false
		}
		fs2 := fs.Add(
			c.Source(int(extra[0]%4)+1, int(extra[0]%2)+1),
			c.Dest(int(extra[1]%4)+1, int(extra[1]%2)+1), 1)
		ma2 := append(ma.Copy(), int(extra[2]%2)+1)
		r2, err := ClosRouting(c, fs2, ma2)
		if err != nil {
			return false
		}
		a2, err := MaxMinFair(c.Network(), fs2, r2)
		if err != nil {
			return false
		}
		return a2.MinElem().Cmp(a.MinElem()) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickThroughputWithinCutBounds: the max-min throughput never
// exceeds the total server-link capacity on either side actually used.
func TestQuickThroughputWithinCutBounds(t *testing.T) {
	f := func(bytes []byte) bool {
		c, fs, ma := quickInstance(bytes)
		if len(fs) == 0 {
			return true
		}
		r, err := ClosRouting(c, fs, ma)
		if err != nil {
			return false
		}
		a, err := MaxMinFair(c.Network(), fs, r)
		if err != nil {
			return false
		}
		tp := Throughput(a)
		srcCut := rational.Int(int64(len(fs.PerSource())))
		dstCut := rational.Int(int64(len(fs.PerDestination())))
		return tp.Cmp(srcCut) <= 0 && tp.Cmp(dstCut) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// saturatedLinks returns the IDs of all finite links whose load equals
// their capacity under allocation a.
func saturatedLinks(net *topology.Network, r Routing, a Allocation) []topology.LinkID {
	loads := LinkLoads(net, r, a)
	var ids []topology.LinkID
	for _, l := range net.Links() {
		if l.Unbounded {
			continue
		}
		if loads[l.ID].Cmp(l.Capacity) == 0 {
			ids = append(ids, l.ID)
		}
	}
	return ids
}

// TestBottlenecksExplainMaxMinFairness: the analysis API agrees with the
// verifier — water-filled allocations have a bottleneck for every flow,
// and the reported links are genuinely saturated.
func TestBottlenecksExplainMaxMinFairness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		c, fs, r := randomInstance(rng, rng.Intn(3)+1, rng.Intn(10)+1)
		a, err := MaxMinFair(c.Network(), fs, r)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := Bottlenecks(c.Network(), fs, r, a)
		if err != nil {
			t.Fatal(err)
		}
		saturated := map[topology.LinkID]bool{}
		for _, l := range saturatedLinks(c.Network(), r, a) {
			saturated[l] = true
		}
		for fi, rep := range reports {
			if len(rep.Links) == 0 {
				t.Fatalf("trial %d: flow %d has no bottleneck in a max-min fair allocation", trial, fi)
			}
			for _, l := range rep.Links {
				if !saturated[l] {
					t.Fatalf("trial %d: reported bottleneck %v is not saturated", trial, l)
				}
				if !r[fi].Contains(l) {
					t.Fatalf("trial %d: reported bottleneck %v not on flow %d's path", trial, l, fi)
				}
			}
		}
	}
}

// TestBottlenecksOnSuboptimalAllocation: under-allocated rates leave
// flows without bottlenecks (the Lemma 2.2 "only if" direction).
func TestBottlenecksOnSuboptimalAllocation(t *testing.T) {
	c := topology.MustClos(1)
	fs := NewCollection(
		c.Source(1, 1), c.Dest(2, 1),
		c.Source(2, 1), c.Dest(2, 1),
	)
	r, err := ClosRouting(c, fs, MiddleAssignment{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Bottlenecks(c.Network(), fs, r, rational.VecOf(1, 4, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if len(rep.Links) != 0 {
			t.Errorf("flow %d reported bottlenecks %v on an under-allocated instance", rep.Flow, rep.Links)
		}
	}
	if _, err := Bottlenecks(c.Network(), fs, r, rational.VecOf(9, 1, 9, 1)); err == nil {
		t.Error("infeasible allocation accepted")
	}
}

// TestZeroCapacityLinkFailureInjection: a failed (zero-capacity) link
// freezes the flows crossing it at rate zero, and both the allocator and
// the verifier handle the degenerate case.
func TestZeroCapacityLinkFailureInjection(t *testing.T) {
	net := topology.New("degraded")
	s1 := net.AddNode(topology.KindSource, "s1")
	s2 := net.AddNode(topology.KindSource, "s2")
	d := net.AddNode(topology.KindDestination, "t")
	failed, err := net.AddLink(s1, d, rational.Zero())
	if err != nil {
		t.Fatal(err)
	}
	alive, err := net.AddLink(s2, d, rational.One())
	if err != nil {
		t.Fatal(err)
	}
	fs := NewCollection(s1, d, s2, d)
	r := Routing{topology.Path{failed}, topology.Path{alive}}
	a, err := MaxMinFair(net, fs, r)
	if err != nil {
		t.Fatal(err)
	}
	want := rational.VecOf(0, 1, 1, 1)
	if !a.Equal(want) {
		t.Fatalf("degraded allocation = %v, want %v", a, want)
	}
	if err := IsMaxMinFair(net, fs, r, a); err != nil {
		t.Errorf("bottleneck property on degraded network: %v", err)
	}
}

// TestWaterfillCapacityScaling: scaling every capacity by an integer
// factor scales every max-min fair rate by the same factor.
func TestWaterfillCapacityScaling(t *testing.T) {
	build := func(scale int64) (*topology.Network, Collection, Routing) {
		net := topology.New("scaled")
		s1 := net.AddNode(topology.KindSource, "s1")
		s2 := net.AddNode(topology.KindSource, "s2")
		mid := net.AddNode(topology.KindOther, "m")
		d := net.AddNode(topology.KindDestination, "t")
		c := rational.Int(scale)
		l1, _ := net.AddLink(s1, mid, c)
		l2, _ := net.AddLink(s2, mid, rational.Mul(c, rational.R(1, 2)))
		l3, _ := net.AddLink(mid, d, rational.Mul(c, rational.R(5, 4)))
		fs := NewCollection(s1, d, s2, d)
		r := Routing{topology.Path{l1, l3}, topology.Path{l2, l3}}
		return net, fs, r
	}
	net1, fs1, r1 := build(1)
	a1, err := MaxMinFair(net1, fs1, r1)
	if err != nil {
		t.Fatal(err)
	}
	net3, fs3, r3 := build(3)
	a3, err := MaxMinFair(net3, fs3, r3)
	if err != nil {
		t.Fatal(err)
	}
	three := big.NewRat(3, 1)
	for fi := range a1 {
		if got := rational.Mul(a1[fi], three); got.Cmp(a3[fi]) != 0 {
			t.Errorf("flow %d: 3x scaling gives %s, want %s",
				fi, rational.String(a3[fi]), rational.String(got))
		}
	}
}
