package core

import (
	"context"
	"math/big"
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
			if fast := allocOf(rates); !fast.Equal(want) {
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
