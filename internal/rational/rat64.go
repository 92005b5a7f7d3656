package rational

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// Rat64 is an exact rational with a single machine word per component:
// num/den with den ≥ 1 and gcd(|num|, den) = 1. It is the small-word
// rate format of the allocation engine: every quantity the paper's
// constructions produce (unit capacities, rates like 1/(k+1), 1/n,
// (n-1)/2·(1+1/(k+1))) fits comfortably, so rate lanes are Rat64 values
// and the search screens them without materializing *big.Rat.
//
// Add returns (result, ok). ok = false means the exact sum may not
// fit in an int64 fraction; the operands are unchanged and the caller
// must redo the computation on *big.Rat (every Rat64 converts losslessly
// via Rat). Overflow detection is conservative: Add may report false
// even when the reduced sum would fit, which costs a fallback but never
// an inexact value.
//
// The zero value is NOT a valid Rat64 (its denominator is 0); use
// Zero64, Int64, Make64 or FromRat.
type Rat64 struct {
	num, den int64
}

// Zero64 returns the Rat64 zero, 0/1.
func Zero64() Rat64 { return Rat64{0, 1} }

// Int64 returns the Rat64 v/1.
func Int64(v int64) Rat64 { return Rat64{v, 1} }

// Make64 returns the normalized rational p/q. ok is false when q is
// zero or the reduced fraction does not fit (only possible for
// magnitudes involving math.MinInt64).
func Make64(p, q int64) (Rat64, bool) {
	if q == 0 {
		return Rat64{}, false
	}
	neg := (p < 0) != (q < 0)
	return norm64(neg, absU64(p), absU64(q))
}

// FromRat returns the Rat64 image of x, with ok = false when either
// component of x exceeds an int64. The conversion is exact when ok.
func FromRat(x *big.Rat) (Rat64, bool) {
	if !x.Num().IsInt64() || !x.Denom().IsInt64() {
		return Rat64{}, false
	}
	// big.Rat is always normalized with positive denominator, so the
	// components can be adopted directly.
	return Rat64{x.Num().Int64(), x.Denom().Int64()}, true
}

// Rat returns the *big.Rat image of a. The conversion is always exact.
func (a Rat64) Rat() *big.Rat { return big.NewRat(a.num, a.den) }

// Num returns the numerator of a (negative iff a is negative).
func (a Rat64) Num() int64 { return a.num }

// Den returns the denominator of a (always ≥ 1 for valid values).
func (a Rat64) Den() int64 { return a.den }

// Sign returns -1, 0 or +1 according to the sign of a.
func (a Rat64) Sign() int {
	switch {
	case a.num < 0:
		return -1
	case a.num > 0:
		return 1
	default:
		return 0
	}
}

// String formats a in lowest terms, using plain integers where possible.
func (a Rat64) String() string {
	var buf [41]byte
	return string(a.Append(buf[:0]))
}

// Append appends a's String form to dst: the numerator, then "/" and
// the denominator unless it is 1. That is the spelling rational.Append
// gives the same value as a *big.Rat.
func (a Rat64) Append(dst []byte) []byte {
	dst = strconv.AppendInt(dst, a.num, 10)
	if a.den == 1 {
		return dst
	}
	return strconv.AppendInt(append(dst, '/'), a.den, 10)
}

// Cmp compares a and b, returning -1, 0 or +1. Unlike Add it can never
// overflow: the cross products are compared in 128 bits.
func (a Rat64) Cmp(b Rat64) int {
	sa, sb := a.Sign(), b.Sign()
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	case sa == 0:
		return 0
	}
	// Same non-zero sign: compare |a.num|·b.den against |b.num|·a.den.
	h1, l1 := bits.Mul64(absU64(a.num), uint64(b.den))
	h2, l2 := bits.Mul64(absU64(b.num), uint64(a.den))
	c := cmpU128(h1, l1, h2, l2)
	if sa < 0 {
		c = -c
	}
	return c
}

// CmpRat compares a against the *big.Rat b exactly, allocating nothing
// when both components of b fit in int64 — the overwhelmingly common
// case for the rates this library produces. The block search path uses
// it to screen Rat64 candidate lanes against a *big.Rat incumbent
// without materializing the candidate.
func (a Rat64) CmpRat(b *big.Rat) int {
	bn, bd := b.Num(), b.Denom()
	if bn.IsInt64() && bd.IsInt64() {
		// big.Rat is always normalized with positive denominator, so the
		// components form a valid Rat64 directly.
		return a.Cmp(Rat64{bn.Int64(), bd.Int64()})
	}
	return a.Rat().Cmp(b)
}

// Sort64 sorts v ascending in place, allocating nothing. Equal values
// are interchangeable (Rat64 is normalized, so equality is structural),
// so the instability of the underlying sort is unobservable.
func Sort64(v []Rat64) {
	slices.SortFunc(v, Rat64.Cmp)
}

// Add returns a+b with ok = false on overflow.
func (a Rat64) Add(b Rat64) (Rat64, bool) {
	// a.num/a.den + b.num/b.den with the shared factor of the
	// denominators divided out first (Knuth 4.5.1): with g = gcd(a.den,
	// b.den), the sum is (a.num·(b.den/g) + b.num·(a.den/g)) /
	// (a.den·(b.den/g)).
	g := int64(gcd64(uint64(a.den), uint64(b.den)))
	db := b.den / g
	x, ok := mulI64(a.num, db)
	if !ok {
		return Rat64{}, false
	}
	y, ok := mulI64(b.num, a.den/g)
	if !ok {
		return Rat64{}, false
	}
	p, ok := addI64(x, y)
	if !ok {
		return Rat64{}, false
	}
	q, ok := mulI64(a.den, db)
	if !ok {
		return Rat64{}, false
	}
	return norm64(p < 0, absU64(p), absU64(q))
}

// norm64 builds the normalized Rat64 with the given sign and component
// magnitudes. uq must be non-zero.
func norm64(neg bool, up, uq uint64) (Rat64, bool) {
	if up == 0 {
		return Rat64{0, 1}, true
	}
	g := gcd64(up, uq)
	up, uq = up/g, uq/g
	if up > math.MaxInt64 || uq > math.MaxInt64 {
		return Rat64{}, false
	}
	n := int64(up)
	if neg {
		n = -n
	}
	return Rat64{n, int64(uq)}, true
}

// gcd64 returns the greatest common divisor of a and b, with
// gcd64(0, b) = b and gcd64(a, 0) = a.
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// absU64 returns |v| as a uint64 (exact even for math.MinInt64).
func absU64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// addI64 returns a+b with ok = false on int64 overflow.
func addI64(a, b int64) (int64, bool) {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		return 0, false
	}
	return c, true
}

// mulI64 returns a·b with ok = false on int64 overflow.
func mulI64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	if hi != 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if lo > limit {
		return 0, false
	}
	if neg {
		return -int64(lo), true
	}
	return int64(lo), true
}

// cmpU128 compares the 128-bit values (h1,l1) and (h2,l2).
func cmpU128(h1, l1, h2, l2 uint64) int {
	switch {
	case h1 < h2:
		return -1
	case h1 > h2:
		return 1
	case l1 < l2:
		return -1
	case l1 > l2:
		return 1
	default:
		return 0
	}
}

// Cmp compares two *big.Rat values exactly, taking a single-word fast
// path when all four components fit in int64 (the overwhelmingly common
// case for the rates this library produces: the cross products are
// compared in 128 bits with no allocation). It is a drop-in for
// a.Cmp(b).
func Cmp(a, b *big.Rat) int {
	an, ad := a.Num(), a.Denom()
	bn, bd := b.Num(), b.Denom()
	if an.IsInt64() && ad.IsInt64() && bn.IsInt64() && bd.IsInt64() {
		return Rat64{an.Int64(), ad.Int64()}.Cmp(Rat64{bn.Int64(), bd.Int64()})
	}
	return a.Cmp(b)
}
