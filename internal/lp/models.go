package lp

import (
	"fmt"
	"math/big"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// PathSets lists, for each flow of a collection, the candidate paths over
// which the (splittable) flow may be divided.
type PathSets [][]topology.Path

// ClosAllPaths returns, for each flow, its n candidate paths in C_n (one
// per middle switch).
func ClosAllPaths(c topology.Fabric, fs core.Collection) (PathSets, error) {
	ps := make(PathSets, len(fs))
	for i, f := range fs {
		ps[i] = make([]topology.Path, c.Size())
		for m := 1; m <= c.Size(); m++ {
			p, err := c.Path(f.Src, f.Dst, m)
			if err != nil {
				return nil, fmt.Errorf("flow %d: %w", i, err)
			}
			ps[i][m-1] = p
		}
	}
	return ps, nil
}

// varLayout maps (flow, path) pairs to dense LP variable indices.
type varLayout struct {
	offset []int // per flow
	total  int
}

func layout(paths PathSets) varLayout {
	l := varLayout{offset: make([]int, len(paths))}
	for i, ps := range paths {
		l.offset[i] = l.total
		l.total += len(ps)
	}
	return l
}

// linkConstraints builds one LE constraint per finite link traversed by
// at least one candidate path: total rate over traversing path variables
// is at most the link capacity. numVars is the total variable count of
// the surrounding problem (path variables may be followed by extras such
// as the water level t).
func linkConstraints(net *topology.Network, paths PathSets, l varLayout, numVars int) []Constraint {
	perLink := make(map[topology.LinkID][]int)
	for fi, ps := range paths {
		for pi, p := range ps {
			v := l.offset[fi] + pi
			for _, lid := range p {
				perLink[lid] = append(perLink[lid], v)
			}
		}
	}
	var cons []Constraint
	for _, link := range net.Links() {
		if link.Unbounded {
			continue
		}
		vars, ok := perLink[link.ID]
		if !ok {
			continue
		}
		coeffs := make([]*big.Rat, numVars)
		for _, v := range vars {
			if coeffs[v] == nil {
				coeffs[v] = rational.Zero()
			}
			coeffs[v].Add(coeffs[v], rational.One())
		}
		cons = append(cons, Constraint{Coeffs: coeffs, Rel: LE, RHS: rational.Copy(link.Capacity)})
	}
	return cons
}

// flowTotalCoeffs returns a coefficient vector selecting Σ_p x_{f,p}.
func flowTotalCoeffs(l varLayout, paths PathSets, f, numVars int) []*big.Rat {
	coeffs := make([]*big.Rat, numVars)
	for pi := range paths[f] {
		coeffs[l.offset[f]+pi] = rational.One()
	}
	return coeffs
}

// SplittableMaxMin computes the splittable max-min fair allocation by
// progressive filling with exact LPs: repeatedly maximize the common rate
// t of all unfrozen flows, then freeze exactly the flows whose rate
// cannot exceed t (determined by one extra LP per candidate flow).
//
// For Clos networks with all n paths as candidates, the result matches
// the macro-switch max-min fair rates — the "demand satisfaction"
// property of §1 that unsplittable flows break.
func SplittableMaxMin(net *topology.Network, fs core.Collection, paths PathSets) (rational.Vec, error) {
	if len(paths) != len(fs) {
		return nil, fmt.Errorf("lp: %d path sets for %d flows", len(paths), len(fs))
	}
	nf := len(fs)
	rates := make(rational.Vec, nf)
	if nf == 0 {
		return rates, nil
	}
	for _, ps := range paths {
		if len(ps) == 0 {
			return nil, fmt.Errorf("lp: a flow has no candidate paths")
		}
	}
	l := layout(paths)
	frozen := make([]bool, nf)
	remaining := nf

	for remaining > 0 {
		tVar := l.total // water level variable
		numVars := l.total + 1
		cons := linkConstraints(net, paths, l, numVars)
		for f := 0; f < nf; f++ {
			coeffs := flowTotalCoeffs(l, paths, f, numVars)
			if frozen[f] {
				cons = append(cons, Constraint{Coeffs: coeffs, Rel: EQ, RHS: rational.Copy(rates[f])})
			} else {
				coeffs[tVar] = rational.Int(-1)
				cons = append(cons, Constraint{Coeffs: coeffs, Rel: GE, RHS: rational.Zero()})
			}
		}
		obj := make([]*big.Rat, numVars)
		obj[tVar] = rational.One()
		sol, err := Solve(Problem{NumVars: numVars, Objective: obj, Constraints: cons})
		if err != nil {
			return nil, err
		}
		if sol.Status != Optimal {
			return nil, fmt.Errorf("lp: fill LP is %v", sol.Status)
		}
		level := sol.Objective

		// Freeze flows that cannot exceed the level while everyone else
		// keeps at least the level.
		froze := 0
		for f0 := 0; f0 < nf; f0++ {
			if frozen[f0] {
				continue
			}
			capped, err := flowCapped(net, fs, paths, l, frozen, rates, level, f0)
			if err != nil {
				return nil, err
			}
			if capped {
				frozen[f0] = true
				rates[f0] = rational.Copy(level)
				remaining--
				froze++
			}
		}
		if froze == 0 {
			return nil, fmt.Errorf("lp: progressive filling stalled at level %s", rational.String(level))
		}
	}
	return rates, nil
}

// flowCapped reports whether flow f0's rate cannot exceed level while all
// frozen flows keep their rates and all unfrozen flows get at least
// level.
func flowCapped(net *topology.Network, fs core.Collection, paths PathSets, l varLayout, frozen []bool, rates rational.Vec, level *big.Rat, f0 int) (bool, error) {
	numVars := l.total
	cons := linkConstraints(net, paths, l, numVars)
	for f := range fs {
		coeffs := flowTotalCoeffs(l, paths, f, numVars)
		if frozen[f] {
			cons = append(cons, Constraint{Coeffs: coeffs, Rel: EQ, RHS: rational.Copy(rates[f])})
		} else {
			cons = append(cons, Constraint{Coeffs: coeffs, Rel: GE, RHS: rational.Copy(level)})
		}
	}
	obj := flowTotalCoeffs(l, paths, f0, numVars)
	sol, err := Solve(Problem{NumVars: numVars, Objective: obj, Constraints: cons})
	if err != nil {
		return false, err
	}
	switch sol.Status {
	case Unbounded:
		return false, nil
	case Optimal:
		return sol.Objective.Cmp(level) <= 0, nil
	default:
		return false, fmt.Errorf("lp: cap-test LP is %v", sol.Status)
	}
}
