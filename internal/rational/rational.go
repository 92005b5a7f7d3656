// Package rational provides exact rational arithmetic helpers used across
// the library. All allocation results in the paper are exact fractions
// (e.g. 1/3, 2/3, 1/(n+1)); computing with floats would make lexicographic
// comparisons between sorted rate vectors unreliable, so the entire
// allocation engine works on *big.Rat values.
//
// Values returned by this package are freshly allocated; functions never
// mutate their arguments. Callers must follow the same discipline: treat a
// *big.Rat stored in a shared structure as immutable.
package rational

import (
	"math/big"
	"strings"
)

// R returns the rational p/q. It panics if q is zero, matching the behavior
// of big.NewRat; constructions in this library only use literal non-zero
// denominators.
func R(p, q int64) *big.Rat {
	return big.NewRat(p, q)
}

// Int returns the rational v/1.
func Int(v int64) *big.Rat {
	return big.NewRat(v, 1)
}

// Zero returns a fresh rational equal to 0.
func Zero() *big.Rat {
	return new(big.Rat)
}

// One returns a fresh rational equal to 1.
func One() *big.Rat {
	return big.NewRat(1, 1)
}

// Add returns a+b without mutating either operand.
func Add(a, b *big.Rat) *big.Rat {
	return new(big.Rat).Add(a, b)
}

// Sub returns a-b without mutating either operand.
func Sub(a, b *big.Rat) *big.Rat {
	return new(big.Rat).Sub(a, b)
}

// Mul returns a*b without mutating either operand.
func Mul(a, b *big.Rat) *big.Rat {
	return new(big.Rat).Mul(a, b)
}

// Div returns a/b without mutating either operand. It panics if b is zero.
func Div(a, b *big.Rat) *big.Rat {
	return new(big.Rat).Quo(a, b)
}

// Min returns a fresh copy of the smaller of a and b.
func Min(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return new(big.Rat).Set(a)
	}
	return new(big.Rat).Set(b)
}

// Max returns a fresh copy of the larger of a and b.
func Max(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) >= 0 {
		return new(big.Rat).Set(a)
	}
	return new(big.Rat).Set(b)
}

// Copy returns a fresh copy of a.
func Copy(a *big.Rat) *big.Rat {
	return new(big.Rat).Set(a)
}

// IsZero reports whether a equals 0.
func IsZero(a *big.Rat) bool {
	return a.Sign() == 0
}

// Float returns the closest float64 to a. The second return value of
// Rat.Float64 (exactness) is intentionally dropped: callers use Float only
// for reporting and for the float statistics of the simulations.
func Float(a *big.Rat) float64 {
	f, _ := a.Float64()
	return f
}

// String formats a in lowest terms, using plain integers where possible
// ("1" instead of "1/1").
func String(a *big.Rat) string {
	return string(Append(nil, a))
}

// Append appends a's String form to dst: the numerator, then "/" and
// the denominator unless a is an integer.
func Append(dst []byte, a *big.Rat) []byte {
	dst = a.Num().Append(dst, 10)
	if a.IsInt() {
		return dst
	}
	return a.Denom().Append(append(dst, '/'), 10)
}

// Join formats a slice of rationals as "[a, b, c]".
func Join(vs []*big.Rat) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(String(v))
	}
	b.WriteByte(']')
	return b.String()
}
