package rational

import (
	"math"
	"math/big"
	"testing"
)

func mustMake64(t *testing.T, p, q int64) Rat64 {
	t.Helper()
	r, ok := Make64(p, q)
	if !ok {
		t.Fatalf("Make64(%d, %d) overflowed", p, q)
	}
	return r
}

func TestMake64Normalizes(t *testing.T) {
	cases := []struct {
		p, q             int64
		wantNum, wantDen int64
	}{
		{0, 5, 0, 1},
		{0, -5, 0, 1},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{6, 3, 2, 1},
		{math.MaxInt64, math.MaxInt64, 1, 1},
	}
	for _, tc := range cases {
		r := mustMake64(t, tc.p, tc.q)
		if r.Num() != tc.wantNum || r.Den() != tc.wantDen {
			t.Errorf("Make64(%d, %d) = %v, want %d/%d", tc.p, tc.q, r, tc.wantNum, tc.wantDen)
		}
	}
	if _, ok := Make64(1, 0); ok {
		t.Error("Make64(1, 0) accepted a zero denominator")
	}
	if _, ok := Make64(math.MinInt64, 1); ok {
		t.Error("Make64(MinInt64, 1) did not report overflow")
	}
	if r, ok := Make64(math.MinInt64, 2); !ok || r.Num() != -(1<<62) || r.Den() != 1 {
		t.Errorf("Make64(MinInt64, 2) = %v, %v; want -2^62", r, ok)
	}
}

func TestRat64Arithmetic(t *testing.T) {
	a := mustMake64(t, 1, 3)
	b := mustMake64(t, 1, 6)
	check := func(got Rat64, ok bool, p, q int64, op string) {
		t.Helper()
		if !ok {
			t.Fatalf("%s overflowed", op)
		}
		if got.Num() != p || got.Den() != q {
			t.Errorf("%s = %v, want %d/%d", op, got, p, q)
		}
	}
	sum, ok := a.Add(b)
	check(sum, ok, 1, 2, "1/3 + 1/6")
	diff, ok := a.Add(mustMake64(t, -1, 6))
	check(diff, ok, 1, 6, "1/3 + -1/6")
	zero, ok := a.Add(mustMake64(t, 1, -3))
	check(zero, ok, 0, 1, "1/3 + 1/-3")
	neg, ok := Zero64().Add(mustMake64(t, -1, 3))
	check(neg, ok, -1, 3, "0 + -1/3")
}

func TestRat64Cmp(t *testing.T) {
	vals := []Rat64{
		mustMake64(t, -2, 1), mustMake64(t, -1, 3), Zero64(),
		mustMake64(t, 1, 4), mustMake64(t, 1, 3), Int64(1),
		mustMake64(t, math.MaxInt64, math.MaxInt64-1),
		Int64(math.MaxInt64),
	}
	for i, a := range vals {
		for j, b := range vals {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Cmp(b); got != want {
				t.Errorf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestRat64CmpMatchesBig exercises the 128-bit cross multiplication near
// the int64 boundary, where a naive 64-bit product would wrap.
func TestRat64CmpMatchesBig(t *testing.T) {
	huge := []int64{math.MaxInt64, math.MaxInt64 - 1, (1 << 62) + 3, 3, 1}
	for _, p1 := range huge {
		for _, q1 := range huge {
			for _, p2 := range huge {
				for _, q2 := range huge {
					a := mustMake64(t, p1, q1)
					b := mustMake64(t, p2, q2)
					if got, want := a.Cmp(b), a.Rat().Cmp(b.Rat()); got != want {
						t.Errorf("Cmp(%v, %v) = %d, big says %d", a, b, got, want)
					}
				}
			}
		}
	}
}

func TestRat64Overflow(t *testing.T) {
	big1 := Int64(math.MaxInt64)
	if _, ok := big1.Add(Int64(1)); ok {
		t.Error("MaxInt64 + 1 did not report overflow")
	}
	p1 := mustMake64(t, 1, math.MaxInt64)
	if _, ok := p1.Add(mustMake64(t, 1, math.MaxInt64-1)); ok {
		t.Error("denominator overflow not reported by Add")
	}
	// Overflow must not corrupt the operands (value semantics).
	if big1.Num() != math.MaxInt64 || big1.Den() != 1 {
		t.Errorf("operand mutated: %v", big1)
	}
}

func TestRat64RatRoundTrip(t *testing.T) {
	for _, r := range []Rat64{Zero64(), Int64(-7), mustMake64(t, 22, 7), mustMake64(t, -3, 8)} {
		back, ok := FromRat(r.Rat())
		if !ok || back != r {
			t.Errorf("round trip of %v: %v, %v", r, back, ok)
		}
	}
	wide := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	if _, ok := FromRat(wide); ok {
		t.Error("FromRat accepted a 80-bit numerator")
	}
}

func TestBigCmpFastPath(t *testing.T) {
	wide := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	cases := [][2]*big.Rat{
		{R(1, 3), R(1, 2)},
		{R(-1, 3), R(1, 2)},
		{R(5, 7), R(5, 7)},
		{wide, R(1, 2)},
		{R(1, 2), wide},
		{wide, wide},
	}
	for _, c := range cases {
		if got, want := Cmp(c[0], c[1]), c[0].Cmp(c[1]); got != want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// TestAppend: both renderers append the String form after whatever dst
// holds, and agree with each other and with big.Rat's RatString on
// integers, fractions, signs and the int64 extremes.
func TestAppend(t *testing.T) {
	cases := []struct {
		p, q int64
		want string
	}{
		{0, 1, "0"},
		{1, 1, "1"},
		{2, 4, "1/2"},
		{-1, 3, "-1/3"},
		{7, -14, "-1/2"},
		{math.MaxInt64, 1, "9223372036854775807"},
		{-math.MaxInt64, math.MaxInt64 - 1, "-9223372036854775807/9223372036854775806"},
	}
	for _, c := range cases {
		v, ok := Make64(c.p, c.q)
		if !ok {
			t.Fatalf("Make64(%d, %d) failed", c.p, c.q)
		}
		if got := string(v.Append([]byte("x="))); got != "x="+c.want {
			t.Errorf("Rat64(%d/%d).Append = %q, want %q", c.p, c.q, got, "x="+c.want)
		}
		if got := string(Append([]byte("x="), v.Rat())); got != "x="+c.want {
			t.Errorf("Append(%d/%d) = %q, want %q", c.p, c.q, got, "x="+c.want)
		}
		if v.String() != c.want || String(v.Rat()) != c.want {
			t.Errorf("String(%d/%d) = %q / %q, want %q", c.p, c.q, v.String(), String(v.Rat()), c.want)
		}
		if !v.Rat().IsInt() && v.Rat().RatString() != c.want {
			t.Errorf("RatString(%d/%d) = %q, want %q", c.p, c.q, v.Rat().RatString(), c.want)
		}
	}
	huge, _ := new(big.Rat).SetString("-123456789012345678901234567890/98765432109876543210987")
	if got, want := string(Append(nil, huge)), huge.RatString(); got != want {
		t.Errorf("Append past int64 = %q, want %q", got, want)
	}
}
