package search

import (
	"math/big"
	"sort"

	"closnet/internal/core"
	"closnet/internal/rational"
)

// value is one exact objective value, in the form its producer had at
// hand: a Rat64 lane — the sorted rates for lex, a one-element sum for
// throughput — or a *big.Rat vector, for promoted fills, overflowing
// sums and the relative objective. big is non-nil exactly in the second
// form. A value owns its lane storage and reuses it when it is set
// again; big vectors are never mutated, so values may share them.
type value struct {
	lane []rational.Rat64
	big  rational.Vec
}

// cmp orders a against b as rational.LexCompare orders their *big.Rat
// images, returning -1, 0 or +1: Rat64.Cmp between two lanes,
// Rat64.CmpRat between a lane and a *big.Rat vector, rational.Cmp
// between two vectors.
func (a *value) cmp(b *value) int {
	switch {
	case a.big != nil && b.big != nil:
		return rational.LexCompare(a.big, b.big)
	case a.big != nil:
		return -cmpLane(b.lane, a.big)
	case b.big != nil:
		return cmpLane(a.lane, b.big)
	}
	n := min(len(a.lane), len(b.lane))
	for i, x := range a.lane[:n] {
		if c := x.Cmp(b.lane[i]); c != 0 {
			return c
		}
	}
	return cmpLen(len(a.lane), len(b.lane))
}

// cmpLane is cmp between a lane and a *big.Rat vector.
func cmpLane(a []rational.Rat64, b rational.Vec) int {
	n := min(len(a), len(b))
	for i, x := range a[:n] {
		if c := x.CmpRat(b[i]); c != 0 {
			return c
		}
	}
	return cmpLen(len(a), len(b))
}

// cmpLen orders vectors with equal common prefixes: the shorter is
// smaller, as in rational.LexCompare.
func cmpLen(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// setBig makes v the *big.Rat vector x, keeping the lane storage.
func (v *value) setBig(x rational.Vec) {
	v.lane, v.big = v.lane[:0], x
}

// setRat makes v the one-element value x: a lane when x fits a Rat64.
func (v *value) setRat(x *big.Rat) {
	if r, ok := rational.FromRat(x); ok {
		v.lane, v.big = append(v.lane[:0], r), nil
		return
	}
	v.setBig(rational.Vec{x})
}

// set makes v a copy of w.
func (v *value) set(w *value) {
	v.lane, v.big = append(v.lane[:0], w.lane...), w.big
}

// rats returns v's *big.Rat image, freshly allocated in the lane form.
func (v *value) rats() rational.Vec {
	if v.big != nil {
		return v.big
	}
	x := make(rational.Vec, len(v.lane))
	for i, r := range v.lane {
		x[i] = r.Rat()
	}
	return x
}

// sortedRats returns a's sorted vector; its elements alias a's, which
// allocations never mutate.
func sortedRats(a core.Allocation) rational.Vec {
	s := make(rational.Vec, len(a))
	copy(s, a)
	sort.Slice(s, func(i, j int) bool { return rational.Cmp(s[i], s[j]) < 0 })
	return s
}

// stateOf returns state i of a block: its rate lane, or a nil lane and
// the allocation when the state was promoted.
func stateOf(res *core.BlockResult, i int) ([]rational.Rat64, core.Allocation) {
	if res.Promoted(i) {
		return nil, res.Alloc(i)
	}
	return res.Rates64(i), nil
}
