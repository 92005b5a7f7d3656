package lp

import (
	"math/big"
	"slices"
	"sync"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// ThroughputBounder computes the throughput branch-and-bound's node
// bounds: Bound(ma, fixedFrom) equals SplittableThroughputBound over
// PrefixPaths(c, fs, ma, fixedFrom) exactly, without rebuilding the LP
// or touching *big.Rat on the way.
//
// Construction reads the lane map and the lane capacities — int64
// numerators over one shared denominator den — off c's prepared fabric
// (core.PrepareFabric) and resolves every (flow, middle) path there as
// a list of finite-link lanes (one entry per traversal). Bound then
// switches columns on per prefix — a fixed flow gets only its own
// middle's column, a free flow all n — and solves the LP on the
// integer fraction-free tableau (intTableau) in reused scratch, with
// the same rows and columns, in the same order, that ThroughputProblem
// builds. The dual solution is re-certified in
// exact integers against the original incidence, not the tableau:
// with Y_i the final reduced cost of row i's slack (y_i = Y_i/D, D the
// last pivot), it checks Y_i ≥ 0 and Σ_i Y_i·a_ij ≥ D for every active
// column, and returns the weak-duality value Σ_i Y_i·cap_i / (D·den).
// A wrong pivot can therefore cost pruning power, never correctness.
// Any int64 overflow, an unbounded or uncertified LP, or an invalid
// argument falls back to SplittableThroughputBound, which also supplies
// the error. A ThroughputBounder is NOT safe for concurrent use.
//
// Its lifetime is construct → use → Release. None of its scratch
// depends on the fabric, so released bounders wait in one package-level
// pool, and the next NewThroughputBounder on any fabric reuses one.
type ThroughputBounder struct {
	c     topology.Fabric
	fs    core.Collection
	nf, n int

	// Entry fi*n+m-1 of paths lists the lanes of flow fi's path via
	// middle m; capN[l]/den is lane l's capacity. fast is false when a
	// path or a capacity could not be resolved: then every Bound falls
	// back.
	paths core.LaneTable
	capN  []int64
	den   int64
	fast  bool

	// Per-call scratch: the active columns (indices into paths) in LP
	// variable order, the touched lanes in ascending order (the LP rows)
	// and each lane's row (-1 when untouched).
	t     intTableau
	cols  []int32
	rows  []int32
	rowOf []int32
}

// bounders holds released ThroughputBounders.
var bounders sync.Pool

// NewThroughputBounder prepares repeated throughput bounds of fs over
// c, reusing a released bounder when there is one.
func NewThroughputBounder(c topology.Fabric, fs core.Collection) *ThroughputBounder {
	pf := core.PrepareFabric(c)
	capN, den, fast := pf.Capacities()
	b, _ := bounders.Get().(*ThroughputBounder)
	if b == nil {
		b = new(ThroughputBounder)
	}
	b.c, b.fs, b.nf, b.n, b.capN, b.den = pf, fs, len(fs), pf.Size(), capN, den
	b.fast = fast && !slices.ContainsFunc(capN, func(x int64) bool { return x < 0 })
	b.rowOf = resize(b.rowOf, len(capN))
	for i := range b.rowOf {
		b.rowOf[i] = -1
	}
	if b.fast {
		b.fast = pf.PathLanes(&b.paths, fs) == nil
	}
	return b
}

// Release hands b back for a later NewThroughputBounder to reuse; b
// must not be used after Release, and may be released only once.
func (b *ThroughputBounder) Release() { bounders.Put(b) }

// Bound returns the certified splittable maximum-throughput bound of
// the partial assignment in which flows [fixedFrom, len(fs)) are routed
// per ma and flows [0, fixedFrom) stay splittable over all n middles —
// exactly SplittableThroughputBound(net, fs, PrefixPaths(c, fs, ma,
// fixedFrom)). Only ma[fixedFrom:] is read. The bound is the Rat64 the
// integer simplex certified, with a nil *big.Rat; after a fallback it
// is the freshly allocated *big.Rat, and the Rat64 is meaningless.
func (b *ThroughputBounder) Bound(ma core.MiddleAssignment, fixedFrom int) (rational.Rat64, *big.Rat, error) {
	if num, den, ok := b.bound64(ma, fixedFrom); ok {
		if r, ok := rational.Make64(num, den); ok {
			return r, nil, nil
		}
	}
	paths, err := PrefixPaths(b.c, b.fs, ma, fixedFrom)
	if err != nil {
		return rational.Rat64{}, nil, err
	}
	x, err := SplittableThroughputBound(b.c.Network(), b.fs, paths)
	return rational.Rat64{}, x, err
}

// bound64 is Bound's integer path: the certified bound num/den, or
// ok=false to fall back.
func (b *ThroughputBounder) bound64(ma core.MiddleAssignment, fixedFrom int) (num, den int64, ok bool) {
	if !b.activate(ma, fixedFrom) {
		return 0, 0, false
	}
	defer b.deactivate()
	if optimal, ok := b.solveLP(); !optimal || !ok {
		return 0, 0, false
	}
	nv := len(b.cols)
	return b.certify(b.t.z[nv:nv+len(b.rows)], b.t.d)
}

// activate switches on the columns of the prefix and the rows they
// touch; it is false on an invalid argument. A true return must be
// paired with deactivate.
func (b *ThroughputBounder) activate(ma core.MiddleAssignment, fixedFrom int) bool {
	if !b.fast || len(ma) != b.nf || fixedFrom < 0 || fixedFrom > b.nf {
		return false
	}
	b.cols = b.cols[:0]
	for fi := 0; fi < b.nf; fi++ {
		if fi < fixedFrom {
			for m := 0; m < b.n; m++ {
				b.cols = append(b.cols, int32(fi*b.n+m))
			}
			continue
		}
		if m := ma[fi]; m < 1 || m > b.n {
			return false
		}
		b.cols = append(b.cols, int32(fi*b.n+ma[fi]-1))
	}
	b.rows = b.rows[:0]
	for _, pc := range b.cols {
		for _, l := range b.paths.List(int(pc)) {
			if b.rowOf[l] < 0 {
				b.rowOf[l] = 0
				b.rows = append(b.rows, l)
			}
		}
	}
	slices.Sort(b.rows)
	for i, l := range b.rows {
		b.rowOf[l] = int32(i)
	}
	return true
}

// deactivate clears the row map for the next call.
func (b *ThroughputBounder) deactivate() {
	for _, l := range b.rows {
		b.rowOf[l] = -1
	}
}

// solveLP builds and solves the LP of the active columns and rows.
func (b *ThroughputBounder) solveLP() (optimal, ok bool) {
	t := &b.t
	t.reset(len(b.rows), len(b.cols))
	for j, pc := range b.cols {
		t.z[j] = -1
		for _, l := range b.paths.List(int(pc)) {
			t.a[int(b.rowOf[l])*t.w+j]++
		}
	}
	for i, l := range b.rows {
		t.a[i*t.w+t.w-1] = b.capN[l]
	}
	return t.solve()
}

// certify checks that ys, over the common denominator d, is a feasible
// dual of the active LP — ys[i] ≥ 0 and Σ_i ys[i]·a_ij ≥ d for every
// active column, against the lane incidence rather than the tableau —
// and returns its weak-duality value num/den = Σ_i ys[i]·cap_i / (d·den).
func (b *ThroughputBounder) certify(ys []int64, d int64) (num, den int64, ok bool) {
	for _, y := range ys {
		if y < 0 {
			return 0, 0, false
		}
	}
	for _, pc := range b.cols {
		var s int64
		for _, l := range b.paths.List(int(pc)) {
			if s, ok = addNonNeg(s, ys[b.rowOf[l]]); !ok {
				return 0, 0, false
			}
		}
		if s < d {
			return 0, 0, false
		}
	}
	for i, l := range b.rows {
		yb, ok := mulNonNeg(ys[i], b.capN[l])
		if !ok {
			return 0, 0, false
		}
		if num, ok = addNonNeg(num, yb); !ok {
			return 0, 0, false
		}
	}
	if den, ok = mulNonNeg(d, b.den); !ok {
		return 0, 0, false
	}
	return num, den, true
}
