package core

import (
	"math/big"

	"closnet/internal/topology"
)

// BottleneckReport describes, for one flow, the links that satisfy the
// bottleneck property of §2.2 under a given allocation: saturated links
// on the flow's path where the flow's rate is maximal.
type BottleneckReport struct {
	Flow  int
	Links []topology.LinkID
}

// Bottlenecks returns, for every flow, its bottleneck links under
// allocation a (possibly none if a is not max-min fair; by Lemma 2.2, a
// is max-min fair exactly when every report is non-empty, which is how
// IsMaxMinFair decides). It exposes *where* each flow is constrained,
// which the examples and the clostopo tool use to explain allocations.
func Bottlenecks(net *topology.Network, fs Collection, r Routing, a Allocation) ([]BottleneckReport, error) {
	if err := IsFeasible(net, fs, r, a); err != nil {
		return nil, err
	}
	loads := LinkLoads(net, r, a)
	on := FlowsOnLinks(net, r)

	maxOn := make([]*big.Rat, net.NumLinks())
	for l := range on {
		for _, fi := range on[l] {
			if maxOn[l] == nil || a[fi].Cmp(maxOn[l]) > 0 {
				maxOn[l] = a[fi]
			}
		}
	}

	reports := make([]BottleneckReport, len(fs))
	for fi, p := range r {
		reports[fi].Flow = fi
		for _, l := range p {
			link := net.Link(l)
			if link.Unbounded {
				continue
			}
			if loads[l].Cmp(link.Capacity) == 0 && a[fi].Cmp(maxOn[l]) == 0 {
				reports[fi].Links = append(reports[fi].Links, l)
			}
		}
	}
	return reports, nil
}
