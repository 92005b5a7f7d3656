package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"

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
// equals ReferenceMaxMinFair's; flows with equal rates may share one
// *big.Rat, so its elements must not be mutated in place.
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

// ReferenceMaxMinFair is the same progressive filling as a direct walk
// of the network on *big.Rat, independent of the kernel: each round
// scans all links for the smallest uniform increase that saturates one.
// It is the reference the kernel drivers are tested against and no
// production code calls it; it is exported only because Go cannot share
// _test.go code across packages.
func ReferenceMaxMinFair(net *topology.Network, fs Collection, r Routing) (Allocation, error) {
	if err := r.Validate(net, fs); err != nil {
		return nil, fmt.Errorf("waterfill: %w", err)
	}
	nf := len(fs)
	rates := rational.NewVec(nf)
	if nf == 0 {
		return rates, nil
	}

	links := net.Links()
	on := FlowsOnLinks(net, r)

	remaining := make([]*big.Rat, len(links))
	active := make([]int, len(links)) // unfrozen flows per link
	finite := make([]bool, len(links))
	for _, l := range links {
		if l.Unbounded {
			continue
		}
		finite[l.ID] = true
		remaining[l.ID] = rational.Copy(l.Capacity)
		active[l.ID] = len(on[l.ID])
	}

	frozen := make([]bool, nf)
	level := rational.Zero() // common rate of all unfrozen flows
	remainingFlows := nf

	for remainingFlows > 0 {
		// Smallest uniform increase that saturates some link:
		// min over finite links with active flows of remaining/active.
		var delta *big.Rat
		for id := range links {
			if !finite[id] || active[id] == 0 {
				continue
			}
			d := new(big.Rat).Quo(remaining[id], rational.Int(int64(active[id])))
			if delta == nil || d.Cmp(delta) < 0 {
				delta = d
			}
		}
		if delta == nil {
			return nil, ErrUnboundedFlow
		}

		level = rational.Add(level, delta)
		for id := range links {
			if !finite[id] || active[id] == 0 {
				continue
			}
			used := rational.Mul(delta, rational.Int(int64(active[id])))
			remaining[id] = rational.Sub(remaining[id], used)
		}

		// Freeze every unfrozen flow crossing a saturated link. Freezing
		// only decreases active counts and never changes remaining, so a
		// single pass over the links suffices per round.
		progressed := false
		for id := range links {
			if !finite[id] || active[id] == 0 || remaining[id].Sign() != 0 {
				continue
			}
			for _, fi := range on[id] {
				if frozen[fi] {
					continue
				}
				frozen[fi] = true
				rates[fi] = rational.Copy(level)
				remainingFlows--
				progressed = true
				for _, l := range r[fi] {
					if finite[l] {
						active[l]--
					}
				}
			}
		}
		if !progressed {
			// Defensive: delta was chosen so at least one link saturates
			// with at least one active flow; reaching here is a bug.
			return nil, errors.New("waterfill: no progress (internal invariant violated)")
		}
	}
	return rates, nil
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
