package core

import (
	"fmt"
	"math/big"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// PartialEvaluator bounds partial middle assignments for the
// branch-and-bound search: given a suffix of flows fixed to concrete
// path choices and the remaining prefix free, it computes the max-min
// fair allocation of the *trunk relaxation* — an admissible upper bound
// (in the sorted-lexicographic order of Definition 2.4) on the max-min
// fair allocation of every completion of the partial assignment.
//
// The relaxation works on any topology.Fabric. For every interior
// switch it forms candidate "trunk" pools — the switch's fabric-facing
// out-links and in-links, pooled with capacity equal to the sum of the
// member capacities — and charges a flow on a trunk exactly when every
// one of the flow's Size() candidate paths crosses the pool exactly
// once. A fixed flow is charged on its full real path plus its trunks;
// a free flow is charged only on its static links (the links shared by
// all of its candidate paths, which always include its server links)
// plus its trunks — it pays for fabric capacity in aggregate without
// committing to a path. On a Clos this reproduces the per-ToR
// uplink/downlink trunks exactly; on a fat-tree the pools are the
// edge-to-aggregation bundles; on a Benes the outermost stage fan-outs.
//
// Any completion's allocation satisfies every relaxed constraint: each
// trunk constraint is weaker than the sum of its member link
// constraints (a charged flow crosses the pool exactly once under any
// completion, and uncharged traffic is dropped from the left-hand
// side), and real links carry subsets of their true flow sets. So the
// completion is feasible in the relaxed system, and the water-filled
// max-min fair allocation of that system lexicographically dominates
// it — the bound is admissible. When every flow is fixed the trunk
// constraints are implied by the real links and the charged sets are
// exact, so the relaxed feasible region equals the real one and the
// bound coincides with the exact evaluation.
//
// Bound runs the package's water-filling kernel over the relaxed lanes
// (the real links, then the trunk pools) on lane lists resolved at
// construction. A PartialEvaluator is NOT safe for concurrent use.
type PartialEvaluator struct {
	k     *kernel
	nf    int
	n     int
	cur   [][]int32 // the lane lists of the current call
	rates []rational.Rat64

	// lanes[fi][0] lists the lanes flow fi occupies when free: the real
	// links on all of its candidate paths plus its charged trunks.
	// lanes[fi][m] adds the other real links of its path via choice m.
	lanes    [][][]int32
	forceBig bool
}

// NewPartialEvaluator prepares repeated trunk-relaxation bounds of fs
// over c. It fails if any flow endpoint is not a server of c or any
// link capacity is unbounded (the relaxation pools concrete capacities).
func NewPartialEvaluator(c topology.Fabric, fs Collection) (*PartialEvaluator, error) {
	net := c.Network()
	links := net.Links()
	e := &PartialEvaluator{nf: len(fs), n: c.Size(), cur: make([][]int32, len(fs)), rates: make([]rational.Rat64, len(fs))}
	nReal := len(links)
	caps := make([]*big.Rat, nReal)
	for _, l := range links {
		if l.Unbounded {
			return nil, fmt.Errorf("partial: link %d is unbounded; the trunk relaxation needs finite capacities", l.ID)
		}
		caps[l.ID] = l.Capacity
	}

	// Trunk pools: the fabric-interior out-link and in-link bundles of
	// every switch, in ascending switch order. Links incident to a server
	// stay out of pools (they are exact per-flow constraints already),
	// and singleton bundles duplicate their one real constraint, so only
	// pools of two or more interior links survive. Each real link belongs
	// to at most one out-pool (keyed by its tail) and one in-pool (keyed
	// by its head); poolOf[side][l] is that pool's index, or -1.
	isServer := func(id topology.NodeID) bool {
		k := net.Node(id).Kind
		return k == topology.KindSource || k == topology.KindDestination
	}
	var poolOf [2][]int
	for side := range poolOf {
		poolOf[side] = make([]int, nReal)
		members := make([][]int, net.NumNodes())
		for _, l := range links {
			poolOf[side][l.ID] = -1
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
				poolOf[side][id] = len(caps) - nReal
				pooled.Add(pooled, links[id].Capacity)
			}
			caps = append(caps, pooled)
		}
	}
	e.k = newKernel(caps)

	// Per-flow lanes. A real link is static when it lies on every
	// candidate path. A trunk is charged exactly when every candidate
	// path crosses its pool exactly once (then the flow consumes one unit
	// of pool capacity under any completion).
	e.lanes = make([][][]int32, len(fs))
	occ := make([]int, nReal)
	crossings := make([]int, len(caps)-nReal)
	charged := make([]bool, len(caps)-nReal)
	for fi, f := range fs {
		paths := make([]topology.Path, e.n)
		for q := range charged {
			charged[q] = true
		}
		for m := range paths {
			p, err := c.Path(f.Src, f.Dst, m+1)
			if err != nil {
				return nil, fmt.Errorf("partial: flow %d: %w", fi, err)
			}
			paths[m] = p
			clear(crossings)
			for _, l := range p {
				occ[l]++
				for _, q := range [2]int{poolOf[0][l], poolOf[1][l]} {
					if q >= 0 {
						crossings[q]++
					}
				}
			}
			for q, n := range crossings {
				charged[q] = charged[q] && n == 1
			}
		}
		var free []int32
		for _, l := range paths[0] {
			if occ[l] == e.n {
				free = append(free, int32(l))
			}
		}
		for q, ch := range charged {
			if ch {
				free = append(free, int32(nReal+q))
			}
		}
		e.lanes[fi] = [][]int32{free}
		for _, p := range paths {
			lanes := append([]int32(nil), free...)
			for _, l := range p {
				if occ[l] != e.n {
					lanes = append(lanes, int32(l))
				}
			}
			e.lanes[fi] = append(e.lanes[fi], lanes)
		}
		for _, p := range paths {
			for _, l := range p {
				occ[l] = 0
			}
		}
	}
	return e, nil
}

// ForceBig pins Bound to the (identical) *big.Rat path when on.
func (e *PartialEvaluator) ForceBig(on bool) { e.forceBig = on }

// Bound computes the max-min fair allocation of the trunk relaxation in
// which flows [fixedFrom, len(fs)) are routed per ma and flows
// [0, fixedFrom) are free. The result's sorted vector lexicographically
// dominates (≥) the sorted max-min fair vector of every completion of
// the partial assignment; with fixedFrom == 0 it equals the exact
// evaluation. Only ma[fixedFrom:] is read; the returned Allocation is
// freshly allocated.
func (e *PartialEvaluator) Bound(ma MiddleAssignment, fixedFrom int) (Allocation, error) {
	if len(ma) != e.nf {
		return nil, fmt.Errorf("partial: assignment has %d middles for %d flows", len(ma), e.nf)
	}
	if fixedFrom < 0 || fixedFrom > e.nf {
		return nil, fmt.Errorf("partial: fixedFrom %d out of range [0, %d]", fixedFrom, e.nf)
	}
	for fi := range e.cur {
		m := 0
		if fi >= fixedFrom {
			if m = ma[fi]; m < 1 || m > e.n {
				return nil, fmt.Errorf("partial: flow %d: middle %d out of range [1, %d]", fi, m, e.n)
			}
		}
		e.cur[fi] = e.lanes[fi][m]
	}
	a, err := e.k.solve(e.cur, e.rates, e.k.fast && !e.forceBig)
	if a == nil && err == nil {
		a = allocOf(e.rates)
	}
	return a, err
}
