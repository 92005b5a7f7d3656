// Bound extraction for the branch-and-bound search: the splittable
// relaxation restricted to a partial (suffix-fixed) middle assignment,
// with machine-checked dual certificates.
//
// The key inequality is weak LP duality: for the maximization problem
// max c·x s.t. Ax {≤,≥,=} b, x ≥ 0, any dual-feasible multiplier
// vector y (y_i ≥ 0 on ≤ rows, y_i ≤ 0 on ≥ rows, free on = rows, and
// Aᵀy ≥ c componentwise) proves c·x ≤ y·b for every primal-feasible x.
// CertifyDual verifies those inequalities with exact rational
// arithmetic, so the bound y·b the search prunes on does not depend on
// the simplex implementation being correct — an incorrect solver can
// cost pruning power, never correctness. Dual feasibility is also what
// makes parent bounds inheritable: fixing one more flow only removes
// primal columns, which only removes dual constraints, so a parent's
// certificate stays feasible for every child.
package lp

import (
	"fmt"
	"math/big"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// PrefixPaths builds the candidate path sets of the partial assignment
// in which flows [fixedFrom, len(fs)) are routed per ma — a single
// path each — and flows [0, fixedFrom) remain splittable over all n
// middle switches. The splittable optima over these path sets upper-
// bound every unsplittable completion of the partial assignment. Only
// ma[fixedFrom:] is read.
func PrefixPaths(c topology.Fabric, fs core.Collection, ma core.MiddleAssignment, fixedFrom int) (PathSets, error) {
	if len(ma) != len(fs) {
		return nil, fmt.Errorf("lp: assignment has %d middles for %d flows", len(ma), len(fs))
	}
	if fixedFrom < 0 || fixedFrom > len(fs) {
		return nil, fmt.Errorf("lp: fixedFrom %d out of range [0, %d]", fixedFrom, len(fs))
	}
	ps := make(PathSets, len(fs))
	for fi, f := range fs {
		if fi < fixedFrom {
			ps[fi] = make([]topology.Path, c.Size())
			for m := 1; m <= c.Size(); m++ {
				p, err := c.Path(f.Src, f.Dst, m)
				if err != nil {
					return nil, fmt.Errorf("lp: flow %d: %w", fi, err)
				}
				ps[fi][m-1] = p
			}
			continue
		}
		p, err := c.Path(f.Src, f.Dst, ma[fi])
		if err != nil {
			return nil, fmt.Errorf("lp: flow %d: %w", fi, err)
		}
		ps[fi] = []topology.Path{p}
	}
	return ps, nil
}

// ThroughputProblem builds the splittable maximum-throughput LP over
// the given candidate paths: maximize the total rate, subject to link
// capacities and x ≥ 0, exported so callers can certify its dual
// solutions.
func ThroughputProblem(net *topology.Network, fs core.Collection, paths PathSets) (Problem, error) {
	if len(paths) != len(fs) {
		return Problem{}, fmt.Errorf("lp: %d path sets for %d flows", len(paths), len(fs))
	}
	l := layout(paths)
	obj := make([]*big.Rat, l.total)
	for j := range obj {
		obj[j] = rational.One()
	}
	return Problem{
		NumVars:     l.total,
		Objective:   obj,
		Constraints: linkConstraints(net, paths, l, l.total),
	}, nil
}

// CertifyDual verifies that duals is a feasible dual solution of the
// maximization problem p and returns the weak-duality bound Σ y_i·b_i,
// which upper-bounds c·x for every primal-feasible x ≥ 0. It fails if
// a sign condition or a dual constraint Σ_i y_i·a_ij ≥ c_j is violated
// — every check is exact rational arithmetic, independent of how the
// duals were produced.
func CertifyDual(p Problem, duals []*big.Rat) (*big.Rat, error) {
	if len(duals) != len(p.Constraints) {
		return nil, fmt.Errorf("lp: %d duals for %d constraints", len(duals), len(p.Constraints))
	}
	for i, y := range duals {
		if y == nil {
			return nil, fmt.Errorf("lp: dual %d is nil", i)
		}
		switch p.Constraints[i].Rel {
		case LE:
			if y.Sign() < 0 {
				return nil, fmt.Errorf("lp: dual %d = %s < 0 on a ≤ row", i, rational.String(y))
			}
		case GE:
			if y.Sign() > 0 {
				return nil, fmt.Errorf("lp: dual %d = %s > 0 on a ≥ row", i, rational.String(y))
			}
		}
	}
	// Dual constraints: for each primal variable j, Σ_i y_i·a_ij ≥ c_j.
	col := new(big.Rat)
	for j := 0; j < p.NumVars; j++ {
		col.SetInt64(0)
		for i, c := range p.Constraints {
			a := coeff(c.Coeffs, j)
			if a.Sign() != 0 {
				col.Add(col, rational.Mul(duals[i], a))
			}
		}
		if col.Cmp(coeff(p.Objective, j)) < 0 {
			return nil, fmt.Errorf("lp: dual constraint %d violated: %s < %s",
				j, rational.String(col), rational.String(coeff(p.Objective, j)))
		}
	}
	bound := new(big.Rat)
	for i, c := range p.Constraints {
		bound.Add(bound, rational.Mul(duals[i], c.RHS))
	}
	return bound, nil
}

// SplittableThroughputBound solves the splittable maximum-throughput LP
// over the candidate paths and returns a *certified* upper bound on the
// total throughput of any (splittable or unsplittable) routing confined
// to those paths: the simplex optimum's dual solution is re-verified
// with CertifyDual and the weak-duality value Σ y·b is returned. At
// optimality strong duality makes the certified bound equal the primal
// optimum, so no pruning power is lost by certifying.
func SplittableThroughputBound(net *topology.Network, fs core.Collection, paths PathSets) (*big.Rat, error) {
	p, err := ThroughputProblem(net, fs, paths)
	if err != nil {
		return nil, err
	}
	sol, err := Solve(p)
	if err != nil {
		return nil, err
	}
	if sol.Status != Optimal {
		return nil, fmt.Errorf("lp: throughput bound LP is %v", sol.Status)
	}
	bound, err := CertifyDual(p, sol.Duals)
	if err != nil {
		return nil, fmt.Errorf("lp: dual certificate rejected: %w", err)
	}
	return bound, nil
}
