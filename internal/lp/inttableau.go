package lp

import (
	"math"
	"math/big"
	"math/bits"
)

// intTableau is the integer fraction-free (Bareiss) counterpart of
// tableau for problems whose rows are all LE with a non-negative RHS:
// every row starts with its slack basic, so there is no phase 1 and no
// artificial column. Every entry is an int64 whose true value is the
// entry / d, where d is the last pivot element (1 before the first
// pivot); the RHS column additionally carries one constant scale (the
// lcm of the RHS denominators) that callers divide out. A pivot on
// (r, c) with p = a[r][c] keeps the pivot row and replaces every other
// entry by (p·a[i][j] − a[i][c]·a[r][j]) / d — an exact division, since
// every entry is a minor of the original integer matrix — after which
// d = p. Pivots always land on positive true values and d starts at 1,
// so d stays positive and entry signs are true signs: Bland's rule and
// the ratio test see exactly what they see on the rational tableau and
// pick the same pivots. Any int64 overflow (or an inexact division,
// which would be an internal bug) reports ok=false and the caller
// falls back to the *big.Rat tableau.
type intTableau struct {
	m     int
	w     int     // row width: the structurals, m slacks, the RHS
	a     []int64 // m rows of width w, row-major
	z     []int64 // reduced-cost row, width w
	basis []int
	d     int64

	// pivots counts pivots; a pivot whose count reaches failAt (> 0)
	// reports overflow. failAt is a test hook for the fallback path.
	pivots, failAt int
}

// reset sizes the tableau for m rows over nVars structurals and zeroes
// it, with every slack basic and d = 1. Scratch is reused across calls.
func (t *intTableau) reset(m, nVars int) {
	t.m, t.w = m, nVars+m+1
	t.a = resize(t.a, m*t.w)
	t.z = resize(t.z, t.w)
	t.basis = resize(t.basis, m)
	clear(t.a)
	clear(t.z)
	for i := range t.basis {
		t.basis[i] = nVars + i
		t.a[i*t.w+nVars+i] = 1
	}
	t.d, t.pivots = 1, 0
}

func (t *intTableau) row(i int) []int64 { return t.a[i*t.w : (i+1)*t.w] }

// rhs returns row i's scaled RHS numerator (true value rhs / (d·scale)).
func (t *intTableau) rhs(i int) int64 { return t.a[i*t.w+t.w-1] }

// solve runs Bland's simplex from the slack basis on the z row the
// caller seeded (z_j = −c_j). optimal is false on unboundedness; ok is
// false on overflow, in which case the tableau is garbage.
func (t *intTableau) solve() (optimal, ok bool) {
	nCols := t.w - 1
	for {
		enter := -1
		for j := 0; j < nCols; j++ {
			if t.z[j] < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true, true
		}
		// Min ratio rhs_i / a_ic over a_ic > 0, cross-multiplied in 128
		// bits (d cancels); ties by smallest basic index.
		leave := -1
		for i := 0; i < t.m; i++ {
			ai := t.a[i*t.w+enter]
			if ai <= 0 {
				continue
			}
			if leave >= 0 {
				h1, l1 := bits.Mul64(uint64(t.rhs(i)), uint64(t.a[leave*t.w+enter]))
				h2, l2 := bits.Mul64(uint64(t.rhs(leave)), uint64(ai))
				if c := cmpU128(h1, l1, h2, l2); c > 0 || (c == 0 && t.basis[i] > t.basis[leave]) {
					continue
				}
			}
			leave = i
		}
		if leave < 0 {
			return false, true
		}
		if !t.pivot(leave, enter) {
			return false, false
		}
	}
}

// pivot makes column c basic in row r.
func (t *intTableau) pivot(r, c int) bool {
	if t.pivots++; t.pivots == t.failAt {
		return false
	}
	prow := t.row(r)
	p := prow[c]
	for i := 0; i < t.m; i++ {
		if i != r && !bareissRow(t.row(i), prow, c, p, t.d) {
			return false
		}
	}
	if !bareissRow(t.z, prow, c, p, t.d) {
		return false
	}
	t.d = p
	t.basis[r] = c
	return true
}

// bareissRow applies one fraction-free elimination step to row against
// the pivot row prow (pivot column c, pivot p, previous pivot d).
func bareissRow(row, prow []int64, c int, p, d int64) bool {
	f := row[c]
	if f == 0 {
		// The row only rescales from d to p.
		if p == d {
			return true
		}
		for j, v := range row {
			if v != 0 {
				var ok bool
				if row[j], ok = mulSubDiv(p, v, 0, 0, d); !ok {
					return false
				}
			}
		}
		return true
	}
	for j, v := range row {
		if v == 0 && prow[j] == 0 {
			continue
		}
		var ok bool
		if row[j], ok = mulSubDiv(p, v, f, prow[j], d); !ok {
			return false
		}
	}
	return true
}

// mulSubDiv returns (a·b − c·e) / d for d > 0 in 128-bit intermediate
// precision; ok is false when the quotient does not fit in int64 or the
// division leaves a remainder.
func mulSubDiv(a, b, c, e, d int64) (int64, bool) {
	h1, l1 := mul128(a, b)
	h2, l2 := mul128(c, e)
	lo, borrow := bits.Sub64(l1, l2, 0)
	hi := h1 - h2 - borrow
	neg := int64(hi) < 0
	if neg {
		var b2 uint64
		lo, b2 = bits.Sub64(0, lo, 0)
		hi = -hi - b2
	}
	var q uint64
	if d == 1 {
		if hi != 0 {
			return 0, false
		}
		q = lo
	} else {
		if hi >= uint64(d) {
			return 0, false
		}
		var rem uint64
		if q, rem = bits.Div64(hi, lo, uint64(d)); rem != 0 {
			return 0, false
		}
	}
	if q > math.MaxInt64 {
		return 0, false
	}
	if neg {
		return -int64(q), true
	}
	return int64(q), true
}

// mul128 is the signed 128-bit product of a and b as (hi, lo) words in
// two's complement.
func mul128(a, b int64) (hi, lo uint64) {
	hi, lo = bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi, lo
}

// cmpU128 compares two unsigned 128-bit values.
func cmpU128(h1, l1, h2, l2 uint64) int {
	switch {
	case h1 != h2:
		if h1 < h2 {
			return -1
		}
		return 1
	case l1 < l2:
		return -1
	case l1 > l2:
		return 1
	}
	return 0
}

// mulNonNeg is the overflow-checked product of two non-negative int64s.
func mulNonNeg(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a > math.MaxInt64/b {
		return 0, false
	}
	return a * b, true
}

// addNonNeg is the overflow-checked sum of two non-negative int64s.
func addNonNeg(a, b int64) (int64, bool) {
	if a > math.MaxInt64-b {
		return 0, false
	}
	return a + b, true
}

// lcmScale folds denominator q into the running lcm l; ok is false on
// overflow.
func lcmScale(l, q int64) (int64, bool) {
	g, b := l, q
	for b != 0 {
		g, b = b, g%b
	}
	return mulNonNeg(l/g, q)
}

// int64Of returns x as an int64 when it is an integer that fits.
func int64Of(x *big.Rat) (int64, bool) {
	if !x.IsInt() || !x.Num().IsInt64() {
		return 0, false
	}
	return x.Num().Int64(), true
}

// solveInt is Solve's integer path: it handles problems whose rows are
// all LE with a non-negative RHS and whose coefficients and objective
// are integers, and returns exactly the Solution the rational tableau
// would (same pivots, so the same X, objective and duals). ok is false
// when the problem is out of scope or a value overflows int64.
func solveInt(p Problem, failAt int) (sol *Solution, ok bool) {
	n, m := p.NumVars, len(p.Constraints)
	scale := int64(1)
	for _, c := range p.Constraints {
		if c.Rel != LE || c.RHS.Sign() < 0 || !c.RHS.Denom().IsInt64() {
			return nil, false
		}
		if scale, ok = lcmScale(scale, c.RHS.Denom().Int64()); !ok {
			return nil, false
		}
	}
	t := &intTableau{failAt: failAt}
	t.reset(m, n)
	for j := 0; j < n && j < len(p.Objective); j++ {
		if c := p.Objective[j]; c != nil {
			v, ok := int64Of(c)
			if !ok || v == math.MinInt64 {
				return nil, false
			}
			t.z[j] = -v
		}
	}
	for i, c := range p.Constraints {
		row := t.row(i)
		for j, a := range c.Coeffs {
			if a != nil {
				if row[j], ok = int64Of(a); !ok {
					return nil, false
				}
			}
		}
		num := c.RHS.Num()
		if !num.IsInt64() {
			return nil, false
		}
		if row[t.w-1], ok = mulNonNeg(num.Int64(), scale/c.RHS.Denom().Int64()); !ok {
			return nil, false
		}
	}
	optimal, ok := t.solve()
	if !ok {
		return nil, false
	}
	if !optimal {
		return &Solution{Status: Unbounded}, true
	}
	// True value of a scaled RHS entry: v / (d·scale); of a z entry: v / d.
	dd := new(big.Int).Mul(big.NewInt(t.d), big.NewInt(scale))
	x := make([]*big.Rat, n)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, bv := range t.basis {
		if bv < n {
			x[bv].SetFrac(big.NewInt(t.rhs(i)), dd)
		}
	}
	obj := new(big.Rat)
	for j := 0; j < n && j < len(p.Objective); j++ {
		if p.Objective[j] != nil {
			obj.Add(obj, new(big.Rat).Mul(p.Objective[j], x[j]))
		}
	}
	duals := make([]*big.Rat, m)
	for i := range duals {
		duals[i] = big.NewRat(t.z[n+i], t.d)
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Duals: duals}, true
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
