package search

import (
	"context"
	"fmt"
	"math/big"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// RelativeResult is the outcome of a relative-max-min-fairness
// optimization: the best routing found and the minimum per-flow
// network/target rate ratio it achieves.
type RelativeResult struct {
	Assignment core.MiddleAssignment
	Allocation core.Allocation
	MinRatio   *big.Rat
	States     int
}

// MinRatio returns min over flows of a[f]/target[f]. Flows with zero
// target are skipped (their ratio is taken as satisfied); with none
// left it is 1.
func MinRatio(a core.Allocation, target rational.Vec) *big.Rat {
	var worst *big.Rat
	for fi := range a {
		if target[fi].Sign() == 0 {
			continue
		}
		r := rational.Div(a[fi], target[fi])
		if worst == nil || r.Cmp(worst) < 0 {
			worst = r
		}
	}
	if worst == nil {
		worst = rational.One()
	}
	return worst
}

// RelativeMaxMin maximizes, over all routings, the minimum per-flow
// ratio between the max-min fair rate in the Clos network and a target
// rate (typically the flow's macro-switch rate) — the relative-max-min
// fairness objective proposed in the paper's conclusions (§7, R2) as an
// alternative to lex-max-min fairness. Exhaustive; subject to the same
// state cap and worker sharding as the other optimizers.
func RelativeMaxMin(c topology.Fabric, fs core.Collection, target rational.Vec, opts Options) (*RelativeResult, error) {
	if len(target) != len(fs) {
		return nil, fmt.Errorf("search: %d targets for %d flows", len(target), len(fs))
	}
	if opts.Pruned {
		// The minimum target ratio is not monotone under the sorted-vector
		// domination the relaxation bounds certify, so no admissible bound
		// is available for this objective.
		return nil, fmt.Errorf("search: the relative objective has no pruned mode (no admissible relaxation bound)")
	}
	if len(fs) == 0 {
		return &RelativeResult{
			Assignment: core.MiddleAssignment{},
			Allocation: core.Allocation{},
			MinRatio:   rational.One(),
			States:     1,
		}, nil
	}
	res, err := run(core.PrepareFabric(c), fs, opts, relativeObjective(target), scanBlock)
	if err != nil {
		return nil, err
	}
	return &RelativeResult{
		Assignment: res.Assignment,
		Allocation: res.Allocation,
		MinRatio:   MinRatio(res.Allocation, target),
		States:     res.States,
	}, nil
}

// relativeObjective orders allocations by their minimum ratio to
// target. It has no fast form: every state is materialized.
func relativeObjective(target rational.Vec) *objective {
	return &objective{exact: func(a core.Allocation) rational.Vec { return rational.Vec{MinRatio(a, target)} }}
}

// HillClimbRelative improves a starting routing by single-flow reroutes
// that strictly increase the minimum network/target ratio, taking the
// first such reroute in (flow, middle) order each move and stopping at
// a local optimum or after maxMoves moves (0 means 1000).
func HillClimbRelative(c topology.Fabric, fs core.Collection, target rational.Vec, start core.MiddleAssignment, maxMoves int) (*RelativeResult, error) {
	if len(target) != len(fs) {
		return nil, fmt.Errorf("search: %d targets for %d flows", len(target), len(fs))
	}
	if maxMoves <= 0 {
		maxMoves = 1000
	}
	ma := start.Copy()
	nbs, a, err := newNeighbors(c, fs, relativeObjective(target), ma)
	if err != nil {
		return nil, err
	}
	moves := 0
	for ; moves < maxMoves; moves++ {
		nb, err := nbs.improve(ma)
		if err != nil {
			return nil, err
		}
		if nb == nil {
			break
		}
		ma[nb.Flow], a = nb.Middle, nb.Allocation
	}
	// The relative objective has no fast form: its value is the ratio.
	return &RelativeResult{Assignment: ma, Allocation: a, MinRatio: nbs.cur.big[0], States: moves}, nil
}

// MinMiddlesToRoute probes the multirate-rearrangeability question of §6
// for a concrete instance: the smallest number m of middle switches such
// that the flows, offered with the given fixed demands, admit a feasible
// routing of the Clos network with the same ToR/server shape as c but m
// middle switches. It returns (m, true) on success within maxMiddles, or
// (0, false) if even maxMiddles middle switches do not suffice. workers
// follows the Options.Workers policy (0 = all cores, 1 = serial). ctx
// bounds the whole probe: cancellation propagates into every
// feasibility search and a cancelled probe returns ctx.Err().
//
// The classic conjecture (Chung–Ross [11]) places the worst case for
// arbitrary feasible macro-switch allocations at m = 2·serversPerToR − 1.
func MinMiddlesToRoute(ctx context.Context, c *topology.Clos, fs core.Collection, demands rational.Vec, maxMiddles, maxNodes, workers int) (int, bool, error) {
	if len(demands) != len(fs) {
		return 0, false, fmt.Errorf("search: %d demands for %d flows", len(demands), len(fs))
	}
	if maxMiddles < 1 {
		return 0, false, fmt.Errorf("search: maxMiddles %d < 1", maxMiddles)
	}
	for m := 1; m <= maxMiddles; m++ {
		cm, err := topology.NewGeneralClos(c.NumToRs(), c.ServersPerToR(), m)
		if err != nil {
			return 0, false, err
		}
		mapped, err := remapFlows(c, cm, fs)
		if err != nil {
			return 0, false, err
		}
		_, ok, err := FeasibleRouting(ctx, cm, mapped, demands, maxNodes, workers)
		if err != nil {
			if ctx.Err() != nil {
				return 0, false, ctx.Err()
			}
			return 0, false, fmt.Errorf("search: m=%d: %w", m, err)
		}
		if ok {
			return m, true, nil
		}
	}
	return 0, false, nil
}

// remapFlows translates a flow collection from one Clos network to
// another with the same ToR/server shape.
func remapFlows(from, to *topology.Clos, fs core.Collection) (core.Collection, error) {
	out := make(core.Collection, len(fs))
	for fi, f := range fs {
		si, sj, ok := from.SourceIndexOf(f.Src)
		if !ok {
			return nil, fmt.Errorf("search: flow %d source is not a server", fi)
		}
		di, dj, ok := from.DestIndexOf(f.Dst)
		if !ok {
			return nil, fmt.Errorf("search: flow %d destination is not a server", fi)
		}
		out[fi] = core.Flow{Src: to.Source(si, sj), Dst: to.Dest(di, dj)}
	}
	return out, nil
}
