package core

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// TestKernelFractionalCapacities drives the water-filling kernel over
// hand-built networks with fractional and zero capacities, so the
// shared denominator is seeded above 1 (every fabric in the repository
// has integral capacities and den0 = 1). The int64 fast path must
// complete without promotion, and it, the big.Rat path and
// ReferenceMaxMinFair must agree exactly.
func TestKernelFractionalCapacities(t *testing.T) {
	r := rational.R
	for _, tc := range []struct {
		name       string
		c1, c2, c3 *big.Rat // s1->m, s2->m, m->t
		den0       int64
	}{
		{"halves", r(1, 2), r(1, 2), r(1, 1), 6},
		{"scaling", r(1, 1), r(1, 2), r(5, 4), 12},
		{"thirds", r(2, 3), r(1, 2), r(5, 4), 12},
		{"failed link", r(0, 1), r(2, 3), r(5, 4), 12},
		{"fractional bottleneck", r(5, 4), r(5, 4), r(2, 3), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The network of TestWaterfillCapacityScaling plus a second flow
			// from s1 and a server link s3->t beside the shared m->t.
			net := topology.New(tc.name)
			s1 := net.AddNode(topology.KindSource, "s1")
			s2 := net.AddNode(topology.KindSource, "s2")
			s3 := net.AddNode(topology.KindSource, "s3")
			mid := net.AddNode(topology.KindOther, "m")
			d := net.AddNode(topology.KindDestination, "t")
			l1, _ := net.AddLink(s1, mid, tc.c1)
			l2, _ := net.AddLink(s2, mid, tc.c2)
			l3, _ := net.AddLink(mid, d, tc.c3)
			l4, _ := net.AddLink(s3, d, r(2, 3))
			fs := NewCollection(s1, d, s1, d, s2, d, s3, d)
			rt := Routing{{l1, l3}, {l1, l3}, {l2, l3}, {l4}}
			want, err := ReferenceMaxMinFair(net, fs, rt)
			if err != nil {
				t.Fatal(err)
			}

			laneOf, caps := finiteLanes(net)
			tmpl := newCapTemplate(caps)
			k := tmpl.newKernel()
			if !k.fast || k.den0 != tc.den0 {
				t.Fatalf("fast = %v, den0 = %d; want fast with den0 = %d", k.fast, k.den0, tc.den0)
			}
			lanes := make([][]int32, len(rt))
			for fi, p := range rt {
				lanes[fi] = laneOf.appendLanes(nil, p)
			}
			rates := make([]rational.Rat64, len(fs))
			k.register(lanes)
			if ok, err := k.fill64(rates); err != nil || !ok {
				t.Fatalf("fill64: ok = %v, err = %v", ok, err)
			}
			if fast := AllocOf(rates); !fast.Equal(want) {
				t.Errorf("fast path %v, reference %v", fast, want)
			}
			slow := make(Allocation, len(fs))
			k.register(lanes)
			if err := k.fillBig(context.Background(), slow); err != nil {
				t.Fatal(err)
			}
			if !slow.Equal(want) {
				t.Errorf("big path %v, reference %v", slow, want)
			}
		})
	}
}

// TestRegisterTouchedAscending: register leaves touched strictly
// ascending and equal to the union of the registered lane lists, with
// act counting each lane's flows and mark all zero again. The cases
// cover the bitset's word boundaries (lanes 0, 63, 64, 65 and the last
// lane), a small registration after a large one, where a stale word
// would show, and a seeded run of random registrations.
func TestRegisterTouchedAscending(t *testing.T) {
	const n = 200
	caps := make([]*big.Rat, n)
	for j := range caps {
		caps[j] = rational.One()
	}
	tmpl := newCapTemplate(caps)
	k := tmpl.newKernel()
	check := func(name string, lanes [][]int32) {
		t.Helper()
		k.register(lanes)
		count := make([]int32, n)
		var want []int32
		for _, ls := range lanes {
			for _, j := range ls {
				if count[j] == 0 {
					want = append(want, j)
				}
				count[j]++
			}
		}
		slices.Sort(want)
		if !slices.Equal(k.touched, want) {
			t.Fatalf("%s: touched %v, want %v", name, k.touched, want)
		}
		if !slices.Equal(k.act, count) {
			t.Fatalf("%s: act %v, want %v", name, k.act, count)
		}
		if i := slices.IndexFunc(k.mark, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("%s: mark word %d left set: %#x", name, i, k.mark[i])
		}
	}
	large := make([][]int32, 10)
	for f := range large {
		for j := n - 1 - f; j >= 0; j -= 10 {
			large[f] = append(large[f], int32(j))
		}
	}
	for _, tc := range []struct {
		name  string
		lanes [][]int32
	}{
		{"word boundaries", [][]int32{{65, 0}, {n - 1, 63, 64}, {64, 0}, {65}}},
		{"large", large},
		{"small after large", [][]int32{{66}, {64, 66}}},
		{"last lane", [][]int32{{n - 1}}},
		{"first lane", [][]int32{{0}}},
		{"no flows", nil},
		{"after no flows", [][]int32{{127, 128}, {63}}},
	} {
		check(tc.name, tc.lanes)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		lanes := make([][]int32, rng.Intn(6))
		for f := range lanes {
			for l := rng.Intn(5); l > 0; l-- {
				lanes[f] = append(lanes[f], int32(rng.Intn(n)))
			}
		}
		check("random", lanes)
	}
}

// TestMulNonNeg checks the overflow-checked product against math/big
// around the int64 boundary: ok exactly when the product fits.
func TestMulNonNeg(t *testing.T) {
	for _, tc := range [][2]int64{
		{0, 0}, {0, math.MaxInt64}, {math.MaxInt64, 0},
		{1, math.MaxInt64}, {math.MaxInt64, 1},
		{3037000499, 3037000499}, {3037000500, 3037000500},
		{math.MaxInt64, 2}, {2, math.MaxInt64},
		{1 << 31, 1 << 31}, {1 << 31, 1 << 32}, {1 << 32, 1 << 32},
		{math.MaxInt64 / 3, 3}, {math.MaxInt64/3 + 1, 3},
		{math.MaxInt64, math.MaxInt64}, {12345, 67890},
	} {
		a, b := tc[0], tc[1]
		want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		got, ok := mulNonNeg(a, b)
		if ok != want.IsInt64() || ok && got != want.Int64() {
			t.Errorf("mulNonNeg(%d, %d) = %d, %v; want %s (fits: %v)", a, b, got, ok, want, want.IsInt64())
		}
	}
}

// referenceClos is ReferenceMaxMinFair over ClosRouting: the oracle the
// kernel drivers' differential tests compare against, independent of
// the kernel they check.
func referenceClos(c topology.Fabric, fs Collection, ma MiddleAssignment) (Allocation, error) {
	r, err := ClosRouting(c, fs, ma)
	if err != nil {
		return nil, err
	}
	return ReferenceMaxMinFair(c.Network(), fs, r)
}
