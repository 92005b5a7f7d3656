// Package lp implements an exact linear-programming solver over rationals
// (dense two-phase simplex with Bland's anti-cycling rule, run on an
// int64 fraction-free tableau whenever the problem allows) together with
// the LP models of the splittable-flow relaxations that the paper
// contrasts against: splittable maximum throughput and splittable max-min
// fairness via progressive filling.
//
// Exactness matters: the paper's gaps are exact rational quantities
// (e.g. 1 + 1/(k+1) versus 2), and the splittable baseline is expected to
// match the macro-switch rates *exactly* (demand satisfaction, §1), which
// only a rational solver can certify.
package lp

import (
	"errors"
	"fmt"
	"math/big"

	"closnet/internal/rational"
)

// Rel is the relation of a linear constraint.
type Rel int

// Constraint relations.
const (
	LE Rel = iota + 1 // Σ coeffs·x ≤ rhs
	GE                // Σ coeffs·x ≥ rhs
	EQ                // Σ coeffs·x = rhs
)

// Constraint is a single linear constraint over the problem variables.
// Coeffs is indexed by variable; missing trailing entries are zero.
type Constraint struct {
	Coeffs []*big.Rat
	Rel    Rel
	RHS    *big.Rat
}

// Problem is a linear program in the form: maximize Objective·x subject
// to the constraints and x ≥ 0.
type Problem struct {
	NumVars     int
	Objective   []*big.Rat // indexed by variable; missing entries are zero
	Constraints []Constraint
}

// Status reports the outcome of Solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve. X, Objective and Duals are only
// meaningful when Status == Optimal.
type Solution struct {
	Status    Status
	Objective *big.Rat
	X         []*big.Rat
	// Duals holds one multiplier per constraint, oriented for the
	// original relations of a maximization problem: ≥ 0 for LE rows,
	// ≤ 0 for GE rows, free for EQ rows. At optimality, strong duality
	// holds: Σ_i Duals[i]·RHS[i] == Objective. (For constraints dropped
	// as redundant during phase 1, the multiplier is reported as the
	// reduced cost of their artificial column, which preserves the
	// strong-duality identity.)
	Duals []*big.Rat
}

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: invalid problem")

// Solve maximizes the problem exactly. It always terminates (Bland's
// rule) and distinguishes optimal, infeasible and unbounded outcomes.
//
// A problem whose rows are all LE with a non-negative RHS and whose
// coefficients and objective are integers runs on the int64
// fraction-free tableau (intTableau), which pivots exactly like the
// *big.Rat tableau; everything else — and any int64 overflow — runs on
// the *big.Rat tableau.
func Solve(p Problem) (*Solution, error) { return solve(p, 0) }

// solve is Solve with the integer path's failAt test hook: a positive
// failAt makes that path report overflow at its failAt-th pivot.
func solve(p Problem, failAt int) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	if sol, ok := solveInt(p, failAt); ok {
		return sol, nil
	}
	return solveRat(p), nil
}

// validate rejects structurally invalid problems.
func validate(p Problem) error {
	n := p.NumVars
	if n < 0 || len(p.Objective) > n {
		return fmt.Errorf("%w: %d variables, %d objective coefficients", ErrBadProblem, n, len(p.Objective))
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > n {
			return fmt.Errorf("%w: constraint %d has %d coefficients for %d variables", ErrBadProblem, i, len(c.Coeffs), n)
		}
		if c.Rel != LE && c.Rel != GE && c.Rel != EQ {
			return fmt.Errorf("%w: constraint %d has relation %d", ErrBadProblem, i, c.Rel)
		}
		if c.RHS == nil {
			return fmt.Errorf("%w: constraint %d has nil RHS", ErrBadProblem, i)
		}
	}
	return nil
}

// solveRat solves a validated problem on the *big.Rat tableau: the
// integer path's fallback and its differential oracle.
func solveRat(p Problem) *Solution {
	n := p.NumVars
	t := newTableau(p)
	if !t.phase1() {
		return &Solution{Status: Infeasible}
	}
	t.dropArtificials()
	if !t.phase2(p) {
		return &Solution{Status: Unbounded}
	}

	x := make([]*big.Rat, n)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, bv := range t.basis {
		if bv < n {
			x[bv] = rational.Copy(t.rhs(i))
		}
	}
	obj := new(big.Rat)
	for j := 0; j < n && j < len(p.Objective); j++ {
		if p.Objective[j] != nil {
			obj.Add(obj, rational.Mul(p.Objective[j], x[j]))
		}
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Duals: t.duals()}
}

// duals reads the constraint multipliers off the final reduced-cost row:
// for a transformed row whose auxiliary column (slack or artificial) has
// coefficient +e_i, the multiplier is the column's reduced cost; rows
// that were sign-flipped during RHS normalization flip their multiplier
// back to the original orientation.
func (t *tableau) duals() []*big.Rat {
	ys := make([]*big.Rat, len(t.dualCols))
	for i, dc := range t.dualCols {
		y := rational.Copy(t.z[dc.col])
		if dc.flip {
			y.Neg(y)
		}
		ys[i] = y
	}
	return ys
}

// tableau is a dense simplex tableau. Columns are: n structural
// variables, then slack/surplus variables, then artificial variables,
// then the RHS. rows[i] is a constraint row; z is the reduced-cost row of
// the current objective.
type tableau struct {
	rows  [][]*big.Rat
	z     []*big.Rat
	basis []int // basic variable per row
	nCols int   // total columns excluding RHS
	nArt  int   // artificial variable count
	artLo int   // first artificial column

	// dualCols maps each original constraint to the auxiliary column
	// whose final reduced cost is its dual multiplier, and records
	// whether the row was sign-flipped during RHS normalization.
	dualCols []dualCol
}

type dualCol struct {
	col  int
	flip bool
}

func coeff(cs []*big.Rat, j int) *big.Rat {
	if j < len(cs) && cs[j] != nil {
		return cs[j]
	}
	return new(big.Rat)
}

func newTableau(p Problem) *tableau {
	n := p.NumVars
	m := len(p.Constraints)

	// Count auxiliary columns. Every row gets its RHS normalized to be
	// non-negative first (flipping the relation if needed); then LE rows
	// get a slack (which can serve as the initial basis), GE rows get a
	// surplus and an artificial, EQ rows get an artificial.
	type rowPlan struct {
		coeffs []*big.Rat
		rhs    *big.Rat
		rel    Rel
		flip   bool
	}
	plans := make([]rowPlan, m)
	nSlack, nArt := 0, 0
	for i, c := range p.Constraints {
		coeffs := make([]*big.Rat, n)
		for j := 0; j < n; j++ {
			coeffs[j] = rational.Copy(coeff(c.Coeffs, j))
		}
		rhs := rational.Copy(c.RHS)
		rel := c.Rel
		flip := false
		if rhs.Sign() < 0 {
			flip = true
			for j := range coeffs {
				coeffs[j].Neg(coeffs[j])
			}
			rhs.Neg(rhs)
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		plans[i] = rowPlan{coeffs, rhs, rel, flip}
		switch rel {
		case LE, GE:
			nSlack++
			if rel == GE {
				nArt++
			}
		case EQ:
			nArt++
		}
	}

	nCols := n + nSlack + nArt
	t := &tableau{
		rows:     make([][]*big.Rat, m),
		basis:    make([]int, m),
		nCols:    nCols,
		nArt:     nArt,
		artLo:    n + nSlack,
		dualCols: make([]dualCol, m),
	}
	slackAt := n
	artAt := t.artLo
	for i, pl := range plans {
		row := make([]*big.Rat, nCols+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		for j := 0; j < n; j++ {
			row[j].Set(pl.coeffs[j])
		}
		row[nCols].Set(pl.rhs)
		switch pl.rel {
		case LE:
			row[slackAt].SetInt64(1)
			t.basis[i] = slackAt
			t.dualCols[i] = dualCol{col: slackAt, flip: pl.flip}
			slackAt++
		case GE:
			row[slackAt].SetInt64(-1)
			slackAt++
			row[artAt].SetInt64(1)
			t.basis[i] = artAt
			t.dualCols[i] = dualCol{col: artAt, flip: pl.flip}
			artAt++
		case EQ:
			row[artAt].SetInt64(1)
			t.basis[i] = artAt
			t.dualCols[i] = dualCol{col: artAt, flip: pl.flip}
			artAt++
		}
		t.rows[i] = row
	}
	return t
}

func (t *tableau) rhs(i int) *big.Rat { return t.rows[i][t.nCols] }

// pivot makes column col basic in row r.
func (t *tableau) pivot(r, col int) {
	prow := t.rows[r]
	pv := rational.Copy(prow[col])
	for j := range prow {
		prow[j].Quo(prow[j], pv)
	}
	for i, row := range t.rows {
		if i == r || row[col].Sign() == 0 {
			continue
		}
		factor := rational.Copy(row[col])
		for j := range row {
			row[j].Sub(row[j], rational.Mul(factor, prow[j]))
		}
	}
	if t.z != nil && t.z[col].Sign() != 0 {
		factor := rational.Copy(t.z[col])
		for j := range t.z {
			t.z[j].Sub(t.z[j], rational.Mul(factor, prow[j]))
		}
	}
	t.basis[r] = col
}

// iterate runs simplex iterations on the current z row until optimality
// (returns true) or unboundedness (returns false). allowed reports
// whether a column may enter the basis.
func (t *tableau) iterate(allowed func(col int) bool) bool {
	for {
		// Bland: entering column = smallest index with negative reduced
		// cost.
		enter := -1
		for j := 0; j < t.nCols; j++ {
			if allowed(j) && t.z[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
		// Bland: leaving row = min ratio, ties by smallest basic index.
		leave := -1
		var best *big.Rat
		for i, row := range t.rows {
			if row[enter].Sign() <= 0 {
				continue
			}
			ratio := rational.Div(t.rhs(i), row[enter])
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				best = ratio
			}
		}
		if leave < 0 {
			return false
		}
		t.pivot(leave, enter)
	}
}

// phase1 finds a basic feasible solution by maximizing the negated sum of
// artificial variables. It returns false if the problem is infeasible.
func (t *tableau) phase1() bool {
	if t.nArt == 0 {
		return true
	}
	// Objective: maximize -Σ artificials. Reduced costs start as +1 on
	// artificial columns, then basic artificial rows are eliminated.
	t.z = make([]*big.Rat, t.nCols+1)
	for j := range t.z {
		t.z[j] = new(big.Rat)
	}
	for j := t.artLo; j < t.artLo+t.nArt; j++ {
		t.z[j].SetInt64(1)
	}
	for i, bv := range t.basis {
		if bv >= t.artLo {
			for j := range t.z {
				t.z[j].Sub(t.z[j], t.rows[i][j])
			}
		}
	}
	if !t.iterate(func(int) bool { return true }) {
		// Phase 1 objective is bounded above by 0; unbounded is
		// impossible, but treat it as infeasible defensively.
		return false
	}
	// Optimal phase-1 value is -Σ artificials = z RHS; feasible iff 0.
	return t.z[t.nCols].Sign() == 0
}

// dropArtificials pivots remaining artificial variables out of the basis
// (possible only when their row has a nonzero structural entry) and
// removes redundant all-zero rows.
func (t *tableau) dropArtificials() {
	if t.nArt == 0 {
		return
	}
	var keptRows [][]*big.Rat
	var keptBasis []int
	for i := 0; i < len(t.rows); i++ {
		if t.basis[i] < t.artLo {
			keptRows = append(keptRows, t.rows[i])
			keptBasis = append(keptBasis, t.basis[i])
			continue
		}
		// Basic artificial at value 0 (phase 1 succeeded). Pivot in any
		// non-artificial column with nonzero coefficient.
		pivoted := false
		for j := 0; j < t.artLo; j++ {
			if t.rows[i][j].Sign() != 0 {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if pivoted {
			keptRows = append(keptRows, t.rows[i])
			keptBasis = append(keptBasis, t.basis[i])
		}
		// Otherwise the row is structurally redundant: drop it.
	}
	t.rows = keptRows
	t.basis = keptBasis
	// Forbid artificial columns forever by zeroing them; iterate()'s
	// allowed callback also excludes them.
	t.z = nil
}

// phase2 maximizes the real objective from the current basic feasible
// solution. It returns false on unboundedness.
func (t *tableau) phase2(p Problem) bool {
	// Reduced costs: z_j = Σ_i c_basis(i)·row_i[j] − c_j.
	t.z = make([]*big.Rat, t.nCols+1)
	for j := range t.z {
		t.z[j] = new(big.Rat)
	}
	for j := 0; j < p.NumVars; j++ {
		t.z[j].Neg(coeff(p.Objective, j))
	}
	for i, bv := range t.basis {
		c := new(big.Rat)
		if bv < p.NumVars {
			c.Set(coeff(p.Objective, bv))
		}
		if c.Sign() == 0 {
			continue
		}
		for j := range t.z {
			t.z[j].Add(t.z[j], rational.Mul(c, t.rows[i][j]))
		}
	}
	return t.iterate(func(col int) bool { return col < t.artLo })
}
