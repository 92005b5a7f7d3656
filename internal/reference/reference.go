// Package reference holds the *big.Rat water fill that the kernel
// drivers, the searches and the root API are tested against. It is an
// oracle, not a production path: only _test.go files may import it
// (TestOnlyTestsImport fails on any other import), and it depends on
// nothing but topology and rational, so core's own tests can use it.
package reference

import (
	"errors"
	"fmt"
	"math/big"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// MaxMinFair returns the max-min fair rates of the flows whose paths
// through net are given, flow i on paths[i] (a core.Routing converts as
// is). It is the progressive filling of §2.2 as a direct walk of the
// network: each round scans all links for the smallest uniform increase
// that saturates one, raises every unfrozen flow by it and freezes the
// flows crossing a saturated link. The paths must be link IDs of net; it
// does not check that they are src→dst walks.
func MaxMinFair(net *topology.Network, paths []topology.Path) (rational.Vec, error) {
	nf := len(paths)
	rates := rational.NewVec(nf)
	if nf == 0 {
		return rates, nil
	}

	links := net.Links()
	on := make([][]int, len(links)) // flows crossing each link
	for fi, p := range paths {
		for _, l := range p {
			if l < 0 || int(l) >= len(links) {
				return nil, fmt.Errorf("reference: flow %d: link %d not in the network", fi, l)
			}
			on[l] = append(on[l], fi)
		}
	}

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
			return nil, errors.New("reference: flow bounded by no finite-capacity link")
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
				for _, l := range paths[fi] {
					if finite[l] {
						active[l]--
					}
				}
			}
		}
		if !progressed {
			// delta was chosen so that at least one link with an
			// unfrozen flow saturates; reaching here is a bug.
			return nil, errors.New("reference: no progress (internal invariant violated)")
		}
	}
	return rates, nil
}
