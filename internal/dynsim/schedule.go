package dynsim

import (
	"sort"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// scheduleMatching implements the MatchingScheduler discipline: a
// matching of the active flows is served at full rate while every other
// flow waits — admission control applied over time. The matching is
// built shortest-remaining-first (the SRPT flavor used by FCT-oriented
// datacenter transports): flows are scanned in increasing remaining size
// and admitted when their source and destination servers are still free.
// This yields a maximal matching biased toward short flows, which is
// what makes scheduling beat fair sharing on mean FCT.
//
// Admitted flows keep their assigned middle switches; server links are
// private by the matching property, and any fabric-link sharing between
// admitted flows is resolved by max-min fairness on their fixed paths,
// so the schedule is always feasible.
func scheduleMatching(c *topology.Clos, active []*activeFlow) error {
	order := make([]*activeFlow, len(active))
	copy(order, active)
	sort.SliceStable(order, func(a, b int) bool {
		return order[a].remaining < order[b].remaining
	})

	usedSrc := make(map[topology.NodeID]bool)
	usedDst := make(map[topology.NodeID]bool)
	var admitted []*activeFlow
	for _, af := range order {
		if usedSrc[af.flow.Src] || usedDst[af.flow.Dst] {
			af.rate = 0
			continue
		}
		usedSrc[af.flow.Src] = true
		usedDst[af.flow.Dst] = true
		admitted = append(admitted, af)
	}
	if len(admitted) == 0 {
		return nil
	}

	fs := make(core.Collection, len(admitted))
	ma := make(core.MiddleAssignment, len(admitted))
	for k, af := range admitted {
		fs[k] = af.flow
		ma[k] = af.middle
	}
	rates, err := core.ClosMaxMinFair(c, fs, ma)
	if err != nil {
		return err
	}
	for k, af := range admitted {
		af.rate = rational.Float(rates[k])
	}
	return nil
}
