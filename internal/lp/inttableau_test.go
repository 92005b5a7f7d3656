package lp

import (
	"math/big"
	"math/rand"
	"testing"

	"closnet/internal/rational"
)

// intProblem decodes bytes as a small LE problem in the integer path's
// scope: up to 5 variables and 5 rows, objective coefficients in
// [-1, 3], coefficient multiplicities 0–3, RHS p/q with p in [0, 6] and
// q in [1, 6], and a row-kind byte that makes a row empty or a copy of
// the previous one (the latter forces degenerate ratio ties).
func intProblem(data []byte) Problem {
	at := 0
	next := func() int64 {
		if at >= len(data) {
			return 1
		}
		v := int64(data[at])
		at++
		return v
	}
	n := int(next()%5) + 1
	m := int(next() % 6)
	p := Problem{NumVars: n}
	for j := 0; j < n; j++ {
		p.Objective = append(p.Objective, rational.Int(next()%5-1))
	}
	for i := 0; i < m; i++ {
		cs := make([]*big.Rat, n)
		switch kind := next() % 8; {
		case kind == 0: // empty row
		case kind == 1 && i > 0: // duplicate row: a ratio tie
			copy(cs, p.Constraints[i-1].Coeffs)
		default:
			for j := range cs {
				cs[j] = rational.Int(next() % 4)
			}
		}
		rhs := rational.R(next()%7, next()%6+1)
		p.Constraints = append(p.Constraints, Constraint{Coeffs: cs, Rel: LE, RHS: rhs})
	}
	return p
}

// sameSolution fails unless a and b agree on Status and, when optimal,
// on the exact Objective, X and Duals.
func sameSolution(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v != %v", label, a.Status, b.Status)
	}
	if a.Status != Optimal {
		return
	}
	if a.Objective.Cmp(b.Objective) != 0 {
		t.Fatalf("%s: objective %s != %s", label, rational.String(a.Objective), rational.String(b.Objective))
	}
	for _, v := range []struct {
		name string
		x, y []*big.Rat
	}{{"X", a.X, b.X}, {"Duals", a.Duals, b.Duals}} {
		if len(v.x) != len(v.y) {
			t.Fatalf("%s: %d %s != %d", label, len(v.x), v.name, len(v.y))
		}
		for i := range v.x {
			if v.x[i].Cmp(v.y[i]) != 0 {
				t.Fatalf("%s: %s[%d] = %s != %s", label, v.name, i, rational.String(v.x[i]), rational.String(v.y[i]))
			}
		}
	}
}

// checkIntMatchesBig asserts that the integer path takes p and returns
// exactly the *big.Rat tableau's solution.
func checkIntMatchesBig(t *testing.T, p Problem) {
	t.Helper()
	got, ok := solveInt(p, 0)
	if !ok {
		t.Fatalf("integer path declined an in-scope problem: %+v", p)
	}
	sameSolution(t, "int vs big.Rat", got, solveRat(p))
}

// FuzzSimplexIntMatchesBig differentially fuzzes the int64
// fraction-free tableau against the *big.Rat tableau.
func FuzzSimplexIntMatchesBig(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1, 1, 2, 3, 4})
	f.Add([]byte{3, 4, 2, 2, 2, 2, 3, 1, 1, 1, 1, 0, 1, 1, 5, 0, 1, 2, 3})
	f.Add([]byte{4, 5, 0, 4, 3, 2, 1, 0, 0, 3, 2, 1, 0, 2, 3, 1, 1, 1, 1, 3, 3, 3, 3, 4, 5, 0})
	f.Add([]byte{2, 3, 4, 4, 4, 0, 3, 3, 0, 0, 6, 5, 1, 1, 1, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIntMatchesBig(t, intProblem(data))
	})
}

// TestSimplexIntMatchesBigRandom runs the fuzz property over a fixed
// random sample, so plain `go test` covers more than the seed corpus.
func TestSimplexIntMatchesBigRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 48)
	for it := 0; it < 3000; it++ {
		rng.Read(data)
		checkIntMatchesBig(t, intProblem(data))
	}
}

// TestSimplexIntOverflowFallback forces an overflow at every pivot of a
// multi-pivot problem through the failAt hook, then overflows for real
// on huge coefficients: each time Solve must fall back to the *big.Rat
// tableau and return exactly its solution.
func TestSimplexIntOverflowFallback(t *testing.T) {
	p := Problem{
		NumVars:   3,
		Objective: []*big.Rat{rat(1, 1), rat(1, 1), rat(1, 1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{rat(1, 1), rat(2, 1), rat(0, 1)}, Rel: LE, RHS: rat(4, 1)},
			{Coeffs: []*big.Rat{rat(3, 1), rat(1, 1), rat(1, 1)}, Rel: LE, RHS: rat(6, 5)},
			{Coeffs: []*big.Rat{rat(0, 1), rat(1, 1), rat(2, 1)}, Rel: LE, RHS: rat(3, 2)},
		},
	}
	want := solveRat(p)
	forced := 0
	for failAt := 1; ; failAt++ {
		if _, ok := solveInt(p, failAt); ok {
			break // failAt is past the last pivot
		}
		forced++
		got, err := solve(p, failAt)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, "forced overflow", got, want)
	}
	if forced < 2 {
		t.Fatalf("only %d pivots to force an overflow at; the test needs a multi-pivot problem", forced)
	}

	huge := rat(1<<62, 1)
	q := Problem{
		NumVars:   2,
		Objective: []*big.Rat{rat(1, 1), rat(1, 1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{huge, rat(3, 1)}, Rel: LE, RHS: rat(5, 1)},
			{Coeffs: []*big.Rat{rat(3, 1), huge}, Rel: LE, RHS: rat(7, 1)},
		},
	}
	if _, ok := solveInt(q, 0); ok {
		t.Fatal("huge coefficients did not overflow the integer path")
	}
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "real overflow", got, solveRat(q))
}

// TestSimplexIntScope: problems outside the integer path's scope (a GE
// or EQ row, a negative RHS, a fractional coefficient or objective) are
// declined, not mis-solved.
func TestSimplexIntScope(t *testing.T) {
	base := func() Problem {
		return Problem{
			NumVars:   2,
			Objective: []*big.Rat{rat(1, 1), rat(1, 1)},
			Constraints: []Constraint{
				{Coeffs: []*big.Rat{rat(1, 1), rat(1, 1)}, Rel: LE, RHS: rat(3, 2)},
			},
		}
	}
	if _, ok := solveInt(base(), 0); !ok {
		t.Fatal("in-scope problem declined")
	}
	for name, mutate := range map[string]func(*Problem){
		"GE row":       func(p *Problem) { p.Constraints[0].Rel = GE },
		"EQ row":       func(p *Problem) { p.Constraints[0].Rel = EQ },
		"negative RHS": func(p *Problem) { p.Constraints[0].RHS = rat(-1, 1) },
		"fractional a": func(p *Problem) { p.Constraints[0].Coeffs[0] = rat(1, 2) },
		"fractional c": func(p *Problem) { p.Objective[1] = rat(1, 3) },
		"huge RHS num": func(p *Problem) { p.Constraints[0].RHS = new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70)) },
		"huge RHS den": func(p *Problem) {
			p.Constraints[0].RHS = new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 70))
		},
		"huge coeff": func(p *Problem) {
			p.Constraints[0].Coeffs[1] = new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))
		},
		"minint object": func(p *Problem) { p.Objective[0] = new(big.Rat).SetInt64(-1 << 63) },
	} {
		p := base()
		mutate(&p)
		if _, ok := solveInt(p, 0); ok {
			t.Errorf("%s: integer path accepted an out-of-scope problem", name)
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameSolution(t, name, got, solveRat(p))
	}
}

func TestMulSubDiv(t *testing.T) {
	const max = 1<<63 - 1
	for _, c := range []struct {
		a, b, c, e, d, want int64
		ok                  bool
	}{
		{3, 4, 2, 5, 1, 2, true},
		{3, 4, 2, 5, 2, 1, true},
		{-3, 4, 2, 5, 2, -11, true},
		{2, 3, 0, 0, 3, 2, true},
		{max, 2, max, 1, 1, max, true},              // 128-bit intermediate
		{max, 4, 1, 0, 2, 0, false},                 // quotient overflows
		{max, max, 0, 0, max, max, true},            // hi word nonzero, fits after division
		{-max, max, 0, 0, max, -max, true},          // negative, hi word nonzero
		{7, 1, 0, 0, 2, 0, false},                   // inexact
		{1 << 62, 2, 0, 0, 1, 0, false},             // exactly 2^63
		{-(1 << 62), 2, 0, 0, 1, -(1 << 63), false}, // -2^63 is rejected too
	} {
		got, ok := mulSubDiv(c.a, c.b, c.c, c.e, c.d)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("mulSubDiv(%d,%d,%d,%d,%d) = %d,%v; want %d,%v", c.a, c.b, c.c, c.e, c.d, got, ok, c.want, c.ok)
		}
	}
}
