package core

import (
	"context"
	"fmt"

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
// construction. The pools and their capacity template depend on the
// fabric alone: they are built once per prepared fabric, on the first
// PartialEvaluator. A PartialEvaluator is NOT safe for concurrent use.
// Like a BlockEvaluator it lives construct → use → Release, and the
// next NewPartialEvaluator on the same fabric reuses a released one's
// kernel and buffers.
type PartialEvaluator struct {
	pf    *PreparedFabric
	k     *kernel
	nf    int
	n     int
	cur   [][]int32 // the lane lists of the current call
	rates []rational.Rat64

	// Entry fi·(n+1) lists the lanes flow fi occupies when free: the
	// real links on all of its candidate paths plus its charged trunks.
	// Entry fi·(n+1)+m adds the other real links of its path via choice
	// m.
	lanes    LaneTable
	forceBig bool // per owner, reset by the constructor

	// Construction scratch, kept for the next owner: the flow's paths
	// via every choice back to back and where each ends, how many of
	// them cross each real link (zero between flows) and each pool, and
	// whether each pool is charged.
	paths     topology.Path
	pathEnd   []int
	occ       []int
	crossings []int
	charged   []bool
}

// NewPartialEvaluator prepares repeated trunk-relaxation bounds of fs
// over c's prepared fabric (PrepareFabric), reusing an evaluator
// released on that fabric when there is one. It fails if any flow
// endpoint is not a server of c or any link capacity is unbounded (the
// relaxation pools concrete capacities).
func NewPartialEvaluator(c topology.Fabric, fs Collection) (*PartialEvaluator, error) {
	pf := PrepareFabric(c)
	rx, err := pf.relaxation()
	if err != nil {
		return nil, err
	}
	e, _ := pf.partials.get().(*PartialEvaluator)
	if e == nil {
		nPools := len(rx.caps.seedN) - rx.nReal
		e = &PartialEvaluator{pf: pf, k: rx.caps.newKernel(), pathEnd: make([]int, pf.Size()),
			occ: make([]int, rx.nReal), crossings: make([]int, nPools), charged: make([]bool, nPools)}
	}
	e.nf, e.n, e.forceBig = len(fs), pf.Size(), false
	e.cur, e.rates = resize(e.cur, len(fs)), resize(e.rates, len(fs))
	if err := e.resolve(rx, fs); err != nil {
		e.Release()
		return nil, err
	}
	return e, nil
}

// resolve lays out the lane lists of fs. A real link is static when it
// lies on every candidate path. A trunk is charged exactly when every
// candidate path crosses its pool exactly once (then the flow consumes
// one unit of pool capacity under any completion).
func (e *PartialEvaluator) resolve(rx *relaxation, fs Collection) error {
	t, occ := &e.lanes, e.occ
	t.begin(len(fs) * (e.n + 1))
	for fi, f := range fs {
		for q := range e.charged {
			e.charged[q] = true
		}
		paths := e.paths[:0]
		for m := range e.pathEnd {
			start := len(paths)
			var err error
			if paths, err = e.pf.AppendPath(paths, f.Src, f.Dst, m+1); err != nil {
				clear(occ)
				return fmt.Errorf("partial: flow %d: %w", fi, err)
			}
			e.pathEnd[m] = len(paths)
			clear(e.crossings)
			for _, l := range paths[start:] {
				occ[l]++
				for _, q := range [2]int{rx.poolOf[0][l], rx.poolOf[1][l]} {
					if q >= 0 {
						e.crossings[q]++
					}
				}
			}
			for q, n := range e.crossings {
				e.charged[q] = e.charged[q] && n == 1
			}
		}
		e.paths = paths
		free := len(t.flat)
		for _, l := range paths[:e.pathEnd[0]] {
			if occ[l] == e.n {
				t.flat = append(t.flat, int32(l))
			}
		}
		for q, ch := range e.charged {
			if ch {
				t.flat = append(t.flat, int32(rx.nReal+q))
			}
		}
		nfree := len(t.flat) - free
		t.end(fi * (e.n + 1))
		start := 0
		for m, end := range e.pathEnd {
			t.flat = append(t.flat, t.flat[free:free+nfree]...)
			for _, l := range paths[start:end] {
				if occ[l] != e.n {
					t.flat = append(t.flat, int32(l))
				}
			}
			t.end(fi*(e.n+1) + m + 1)
			start = end
		}
		for _, l := range paths {
			occ[l] = 0
		}
	}
	t.cut()
	return nil
}

// Release hands e back to its prepared fabric for a later
// NewPartialEvaluator to reuse. Neither e nor a lane Bound returned may
// be used after Release, and e may be released only once.
func (e *PartialEvaluator) Release() { e.pf.partials.put(e) }

// ForceBig pins Bound to the (identical) *big.Rat path when on.
func (e *PartialEvaluator) ForceBig(on bool) { e.forceBig = on }

// Bound computes the max-min fair allocation of the trunk relaxation in
// which flows [fixedFrom, len(fs)) are routed per ma and flows
// [0, fixedFrom) are free. The result's sorted vector lexicographically
// dominates (≥) the sorted max-min fair vector of every completion of
// the partial assignment; with fixedFrom == 0 it equals the exact
// evaluation. Only ma[fixedFrom:] is read.
//
// The result is the fill's rate lane in flow order, which aliases the
// evaluator's scratch until the next call or Release and must not be
// mutated (like BlockResult.Rates64), or, when the fill was promoted to
// *big.Rat (or ForceBig is on), a nil lane and the freshly allocated
// promoted allocation (like BlockResult.Promoted). AllocOf materializes
// a lane.
func (e *PartialEvaluator) Bound(ma MiddleAssignment, fixedFrom int) (lane []rational.Rat64, promoted Allocation, err error) {
	if len(ma) != e.nf {
		return nil, nil, fmt.Errorf("partial: assignment has %d middles for %d flows", len(ma), e.nf)
	}
	if fixedFrom < 0 || fixedFrom > e.nf {
		return nil, nil, fmt.Errorf("partial: fixedFrom %d out of range [0, %d]", fixedFrom, e.nf)
	}
	for fi := range e.cur {
		m := 0
		if fi >= fixedFrom {
			if m = ma[fi]; m < 1 || m > e.n {
				return nil, nil, fmt.Errorf("partial: flow %d: middle %d out of range [1, %d]", fi, m, e.n)
			}
		}
		e.cur[fi] = e.lanes.List(fi*(e.n+1) + m)
	}
	a, err := e.k.solve(context.TODO(), e.cur, e.rates, e.k.fast && !e.forceBig)
	if a != nil || err != nil {
		return nil, a, err
	}
	return e.rates, nil, nil
}
