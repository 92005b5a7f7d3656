package rational

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// fuzzOp encodes one arithmetic step: an opcode byte followed by two
// little-endian int64 operands forming a rational p/q.
func fuzzOp(op byte, p, q int64) []byte {
	buf := make([]byte, 17)
	buf[0] = op
	binary.LittleEndian.PutUint64(buf[1:9], uint64(p))
	binary.LittleEndian.PutUint64(buf[9:17], uint64(q))
	return buf
}

// FuzzRat64 drives random operation sequences through a Rat64
// accumulator and a *big.Rat reference side by side: odd opcodes add
// the operand, even ones its negation. Every successful Rat64 step must
// match the big.Rat value exactly and keep the normalized-form
// invariant (den ≥ 1, gcd(num, den) = 1); every overflow must fall back
// losslessly — re-entering the small-word domain through FromRat
// whenever the exact value fits.
func FuzzRat64(f *testing.F) {
	// Mixed-sign sums of small values.
	f.Add(append(fuzzOp(0, 1, 3), append(fuzzOp(1, 1, 6), fuzzOp(2, 7, 2)...)...))
	// Sums across coprime denominators.
	f.Add(append(fuzzOp(3, 3, 7), append(fuzzOp(5, 5, 1), fuzzOp(4, 9, 1)...)...))
	// Forced overflow: repeated sums of -MaxInt64.
	f.Add(append(fuzzOp(0, math.MaxInt64, 1), append(fuzzOp(2, math.MaxInt64, 1), fuzzOp(2, math.MaxInt64, 1)...)...))
	// Conservative Add overflow: huge coprime denominators.
	f.Add(append(fuzzOp(0, 1, math.MaxInt64), fuzzOp(0, 1, math.MaxInt64-1)...))
	// Promotion boundary probing around ±2^62 denominators.
	f.Add(append(fuzzOp(0, 1, 1<<62), append(fuzzOp(1, 1, (1<<62)-1), fuzzOp(2, -(1<<61), 3)...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		cur := Zero64()
		ref := new(big.Rat)
		check := func(got Rat64, want *big.Rat) {
			if got.Rat().Cmp(want) != 0 {
				t.Fatalf("Rat64 %s != big.Rat %s", got, want.RatString())
			}
			if got.Den() <= 0 {
				t.Fatalf("denormalized denominator in %s", got)
			}
			if got.String() != String(want) {
				t.Fatalf("Rat64 renders %s, big.Rat %s", got, String(want))
			}
			g := new(big.Int).GCD(nil, nil,
				new(big.Int).Abs(big.NewInt(got.Num())), big.NewInt(got.Den()))
			if g.Cmp(big.NewInt(1)) > 0 && got.Num() != 0 {
				t.Fatalf("unreduced value %d/%d", got.Num(), got.Den())
			}
		}
		for len(data) >= 17 {
			op := data[0] % 2
			p := int64(binary.LittleEndian.Uint64(data[1:9]))
			q := int64(binary.LittleEndian.Uint64(data[9:17]))
			data = data[17:]
			operand, ok := Make64(p, q)
			if !ok {
				continue // q = 0 or a MinInt64 magnitude survived reduction
			}
			if op == 0 {
				// A valid Rat64 numerator is never MinInt64, so it negates.
				operand, _ = Make64(-operand.Num(), operand.Den())
			}
			operandBig := operand.Rat()
			check(operand, operandBig)
			if cur.Cmp(operand) != ref.Cmp(operandBig) {
				t.Fatalf("Cmp(%s, %s) = %d, big says %d",
					cur, operand, cur.Cmp(operand), ref.Cmp(operandBig))
			}
			next, stepOK := cur.Add(operand)
			refNext := new(big.Rat).Add(ref, operandBig)
			if stepOK {
				check(next, refNext)
				cur = next
				ref = refNext
				continue
			}
			// Overflow: the fallback path. The exact value lives on in the
			// reference; whenever it fits back into 64-bit words, FromRat
			// must round-trip it losslessly and the fast path resumes.
			if c64, fits := FromRat(refNext); fits {
				check(c64, refNext)
				cur = c64
				ref = refNext
				continue
			}
			// Genuinely out of range: restart the accumulator.
			cur = Zero64()
			ref = new(big.Rat)
		}
	})
}
