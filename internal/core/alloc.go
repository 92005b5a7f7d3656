package core

import (
	"fmt"
	"math/big"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// Allocation assigns a non-negative rate to each flow of a collection;
// it is a rate vector parallel to the collection. The paper's sorted
// vector a↑ is Allocation.SortedCopy(), its throughput t(a) is
// Allocation.Sum().
type Allocation = rational.Vec

// LinkLoads returns the total allocated rate on every link of net under
// routing r and allocation a. The result is indexed by LinkID.
func LinkLoads(net *topology.Network, r Routing, a Allocation) []*big.Rat {
	loads := make([]*big.Rat, net.NumLinks())
	for i := range loads {
		loads[i] = new(big.Rat)
	}
	for fi, p := range r {
		for _, l := range p {
			loads[l].Add(loads[l], a[fi])
		}
	}
	return loads
}

// IsFeasible returns nil if allocation a is feasible for routing r in net:
// all rates are non-negative and, for every finite-capacity link, the
// total rate over flows traversing the link is at most the capacity
// (§2.2). A non-nil error identifies the first violation.
func IsFeasible(net *topology.Network, fs Collection, r Routing, a Allocation) error {
	if len(a) != len(fs) {
		return fmt.Errorf("allocation has %d rates for %d flows", len(a), len(fs))
	}
	if err := r.Validate(net, fs); err != nil {
		return err
	}
	for i, rate := range a {
		if rate.Sign() < 0 {
			return fmt.Errorf("flow %d: negative rate %s", i, rational.String(rate))
		}
	}
	loads := LinkLoads(net, r, a)
	for _, l := range net.Links() {
		if l.Unbounded {
			continue
		}
		if loads[l.ID].Cmp(l.Capacity) > 0 {
			return fmt.Errorf("link %s: load %s exceeds capacity %s",
				net.LinkName(l.ID), rational.String(loads[l.ID]), rational.String(l.Capacity))
		}
	}
	return nil
}

// IsMaxMinFair returns nil if allocation a is the max-min fair allocation
// for routing r in net, using the bottleneck property of Lemma 2.2: a is
// feasible and every flow has a bottleneck link — a saturated link on its
// path on which its rate is maximal. This is an independent
// characterization used to cross-check the water-filling allocator.
func IsMaxMinFair(net *topology.Network, fs Collection, r Routing, a Allocation) error {
	reports, err := Bottlenecks(net, fs, r, a)
	if err != nil {
		return err
	}
	for fi, rep := range reports {
		if len(rep.Links) == 0 {
			return fmt.Errorf("flow %d (%s -> %s, rate %s) has no bottleneck link",
				fi, net.Node(fs[fi].Src).Name, net.Node(fs[fi].Dst).Name, rational.String(a[fi]))
		}
	}
	return nil
}

// Throughput returns t(a), the total rate over all flows.
func Throughput(a Allocation) *big.Rat {
	return a.Sum()
}
