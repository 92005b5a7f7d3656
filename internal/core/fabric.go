package core

import (
	"fmt"
	"math/big"
	"sync"

	"closnet/internal/topology"
)

// PreparedFabric is a topology.Fabric together with every fabric-only
// fact the evaluators derive from it: the LinkID → lane map of its
// finite links and the kernel's capacity template over those lanes,
// plus — built on first use, so an evaluation pays nothing for it — the
// trunk-relaxation template of the pruned lex search. It is immutable
// and safe for concurrent use: evaluators built on one share it and
// copy only kernel scratch. It implements topology.Fabric by embedding,
// so a prepared fabric goes wherever a fabric does.
type PreparedFabric struct {
	topology.Fabric
	laneOf laneMap
	caps   capTemplate

	relaxOnce sync.Once
	relax     *relaxation
	relaxErr  error
}

// PrepareFabric returns c prepared for evaluation. An already prepared
// fabric is returned as is: every evaluator constructor calls it, so an
// evaluator built on a shared prepared fabric derives nothing.
func PrepareFabric(c topology.Fabric) *PreparedFabric {
	if pf, ok := c.(*PreparedFabric); ok {
		return pf
	}
	laneOf, caps := finiteLanes(c.Network())
	return &PreparedFabric{Fabric: c, laneOf: laneOf, caps: newCapTemplate(caps)}
}

// laneMap maps a LinkID to its lane, -1 for an unbounded link.
type laneMap []int32

// finiteLanes numbers a network's finite links densely as lanes in
// ascending LinkID order, returning the LinkID → lane map and the lane
// capacities.
func finiteLanes(net *topology.Network) (laneMap, []*big.Rat) {
	laneOf := make(laneMap, net.NumLinks())
	caps := make([]*big.Rat, 0, len(laneOf))
	for id := range laneOf {
		laneOf[id] = -1
		if l := net.Link(topology.LinkID(id)); !l.Unbounded {
			laneOf[id] = int32(len(caps))
			caps = append(caps, l.Capacity)
		}
	}
	return laneOf, caps
}

// Capacities returns every lane's capacity as the numerator capN[j]
// over one shared denominator den, the lcm of the capacity
// denominators; ok is false when a value does not fit in int64. The
// slice is shared and must not be mutated.
func (pf *PreparedFabric) Capacities() (capN []int64, den int64, ok bool) {
	return pf.caps.seedN, pf.caps.den0, pf.caps.fast
}

// appendLanes appends the finite lanes of path p to lanes.
func (m laneMap) appendLanes(lanes []int32, p topology.Path) []int32 {
	for _, l := range p {
		if j := m[l]; j >= 0 {
			lanes = append(lanes, j)
		}
	}
	return lanes
}

// PathLanes resolves the finite lanes of every flow's path via every
// choice: entry fi·Size() + m-1 lists flow fi's lanes via choice m, in
// path order. The lists share one flat buffer.
func (pf *PreparedFabric) PathLanes(fs Collection) ([][]int32, error) {
	n := pf.Size()
	ends := make([]int, len(fs)*n)
	var path topology.Path
	var flat []int32
	for fi, f := range fs {
		for m := 1; m <= n; m++ {
			var err error
			if path, err = pf.AppendPath(path[:0], f.Src, f.Dst, m); err != nil {
				return nil, fmt.Errorf("flow %d: %w", fi, err)
			}
			if flat == nil {
				flat = make([]int32, 0, len(path)*len(ends))
			}
			flat = pf.laneOf.appendLanes(flat, path)
			ends[fi*n+m-1] = len(flat)
		}
	}
	return splitFlat(flat, ends), nil
}

// splitFlat cuts flat into the lists ending at ends. Each list is
// capped at its end, so appending to one never overwrites the next.
func splitFlat(flat []int32, ends []int) [][]int32 {
	lists := make([][]int32, len(ends))
	start := 0
	for i, end := range ends {
		lists[i] = flat[start:end:end]
		start = end
	}
	return lists
}

// relaxation is the fabric-only part of the trunk relaxation
// (partial.go): the capacity template over the real links, as lanes in
// LinkID order, then the trunk pools, and poolOf[side][l], the index of
// real link l's out-pool (side 0) and in-pool (side 1), or -1.
type relaxation struct {
	caps   capTemplate
	nReal  int
	poolOf [2][]int
}

// relaxation returns the trunk-relaxation template, building it on the
// first call.
func (pf *PreparedFabric) relaxation() (*relaxation, error) {
	pf.relaxOnce.Do(func() { pf.relax, pf.relaxErr = newRelaxation(pf.Network()) })
	return pf.relax, pf.relaxErr
}

// newRelaxation forms the trunk pools: the fabric-interior out-link and
// in-link bundles of every switch, in ascending switch order. Links
// incident to a server stay out of pools (they are exact per-flow
// constraints already), and singleton bundles duplicate their one real
// constraint, so only pools of two or more interior links survive. Each
// real link belongs to at most one out-pool (keyed by its tail) and one
// in-pool (keyed by its head). It fails if any link is unbounded: the
// relaxation pools concrete capacities.
func newRelaxation(net *topology.Network) (*relaxation, error) {
	links := net.Links()
	nReal := len(links)
	caps := make([]*big.Rat, nReal)
	for _, l := range links {
		if l.Unbounded {
			return nil, fmt.Errorf("partial: link %d is unbounded; the trunk relaxation needs finite capacities", l.ID)
		}
		caps[l.ID] = l.Capacity
	}
	isServer := func(id topology.NodeID) bool {
		k := net.Node(id).Kind
		return k == topology.KindSource || k == topology.KindDestination
	}
	rx := &relaxation{nReal: nReal}
	for side := range rx.poolOf {
		rx.poolOf[side] = make([]int, nReal)
		members := make([][]int, net.NumNodes())
		for _, l := range links {
			rx.poolOf[side][l.ID] = -1
			if !isServer(l.From) && !isServer(l.To) {
				key := [2]topology.NodeID{l.From, l.To}[side]
				members[key] = append(members[key], int(l.ID))
			}
		}
		for _, ids := range members {
			if len(ids) < 2 {
				continue
			}
			pooled := new(big.Rat)
			for _, id := range ids {
				rx.poolOf[side][id] = len(caps) - nReal
				pooled.Add(pooled, links[id].Capacity)
			}
			caps = append(caps, pooled)
		}
	}
	rx.caps = newCapTemplate(caps)
	return rx, nil
}
