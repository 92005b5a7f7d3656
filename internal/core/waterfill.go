package core

import (
	"context"
	"errors"
	"fmt"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// ErrUnboundedFlow is returned by MaxMinFair when some flow traverses no
// finite-capacity link, so its max-min fair rate would be infinite. This
// cannot happen in the paper's topologies, where every flow crosses two
// unit-capacity server links.
var ErrUnboundedFlow = errors.New("waterfill: flow bounded by no finite-capacity link")

// MaxMinFair computes the max-min fair allocation for the given routing by
// exact progressive filling (the water-filling algorithm of [6, 28] cited
// in §2.2): the rates of all unfrozen flows rise uniformly; whenever a
// link saturates, the flows crossing it freeze at the current water level.
//
// It is the package's one-shot kernel driver (kernel.go) and works on any
// network and routing: it numbers net's finite links as lanes, resolves
// every flow's path to its lanes and runs one fill, on int64 lanes and
// promoted losslessly to *big.Rat on overflow. The result is exact and
// equals the tests' reference fill (internal/reference); flows with
// equal rates may share one *big.Rat, so its elements must not be
// mutated in place.
func MaxMinFair(net *topology.Network, fs Collection, r Routing) (Allocation, error) {
	if err := r.Validate(net, fs); err != nil {
		return nil, fmt.Errorf("waterfill: %w", err)
	}
	laneOf, caps := finiteLanes(net)
	tmpl := newCapTemplate(caps)
	lanes := make([][]int32, len(fs))
	for fi, p := range r {
		lanes[fi] = laneOf.appendLanes(nil, p)
	}
	rates := make([]rational.Rat64, len(fs))
	a, err := tmpl.newKernel().solve(context.TODO(), lanes, rates, tmpl.fast)
	if a == nil && err == nil {
		a = AllocOf(rates)
	}
	return a, err
}

// MacroMaxMinFair computes the (unique) max-min fair allocation of fs in
// the macro-switch ms, where the routing is forced.
func MacroMaxMinFair(ms *topology.MacroSwitch, fs Collection) (Allocation, error) {
	r, err := MacroRouting(ms, fs)
	if err != nil {
		return nil, err
	}
	return MaxMinFair(ms.Network(), fs, r)
}

// ClosMaxMinFair computes the max-min fair allocation of fs in the Clos
// network c under the routing given by middle assignment ma.
func ClosMaxMinFair(c topology.Fabric, fs Collection, ma MiddleAssignment) (Allocation, error) {
	r, err := ClosRouting(c, fs, ma)
	if err != nil {
		return nil, err
	}
	return MaxMinFair(c.Network(), fs, r)
}
