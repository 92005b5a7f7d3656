package lp

import (
	"math/big"
	"testing"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// benchShape is the 5-flow C_3 shape of the throughput searches in the
// serving benchmark's search mix: flows alternate between a cross-ToR
// and a same-ToR destination, so middles contend.
func benchShape() (topology.Fabric, core.Collection) {
	c := topology.MustClos(3)
	fs := core.Collection{}
	for f := 0; f < 5; f++ {
		i := f%3 + 1
		if f%2 == 0 {
			fs = fs.Add(c.Source(i, 1), c.Dest(i%3+1, 1), 1)
		} else {
			fs = fs.Add(c.Source(i, 1), c.Dest(i, 1), 1)
		}
	}
	return c, fs
}

func fatTreeShape(t testing.TB) (topology.Fabric, core.Collection) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	fs := core.Collection{}.
		Add(ft.Source(1, 1), ft.Dest(3, 1), 1).
		Add(ft.Source(2, 1), ft.Dest(3, 2), 1).
		Add(ft.Source(3, 2), ft.Dest(1, 1), 1).
		Add(ft.Source(5, 1), ft.Dest(2, 2), 1).
		Add(ft.Source(1, 2), ft.Dest(2, 1), 1)
	return ft, fs
}

// referenceBound is the bound ThroughputBounder must reproduce.
func referenceBound(c topology.Fabric, fs core.Collection, ma core.MiddleAssignment, fixedFrom int) (*big.Rat, error) {
	paths, err := PrefixPaths(c, fs, ma, fixedFrom)
	if err != nil {
		return nil, err
	}
	return SplittableThroughputBound(c.Network(), fs, paths)
}

// eachPrefix calls visit for every fixedFrom and every assignment of
// the fixed suffix ma[fixedFrom:] (the free prefix stays 1).
func eachPrefix(n, nf int, visit func(ma core.MiddleAssignment, fixedFrom int)) {
	ma := make(core.MiddleAssignment, nf)
	for fixedFrom := nf; fixedFrom >= 0; fixedFrom-- {
		for i := range ma {
			ma[i] = 1
		}
		for {
			visit(ma, fixedFrom)
			i := nf - 1
			for ; i >= fixedFrom && ma[i] == n; i-- {
				ma[i] = 1
			}
			if i < fixedFrom {
				break
			}
			ma[i]++
		}
	}
}

// TestThroughputBounderMatchesReference: on every prefix of the bench
// shape and a fat-tree instance, the integer bounder returns exactly the
// *big.Rat-certified reference bound — and still does when the integer
// path is forced onto its fallback.
func TestThroughputBounderMatchesReference(t *testing.T) {
	clos, closFlows := benchShape()
	ft, ftFlows := fatTreeShape(t)
	for _, tc := range []struct {
		name string
		c    topology.Fabric
		fs   core.Collection
	}{{"clos3", clos, closFlows}, {"fattree4", ft, ftFlows}} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewThroughputBounder(tc.c, tc.fs)
			forced := NewThroughputBounder(tc.c, tc.fs)
			forced.t.failAt = 1
			visits := 0
			eachPrefix(tc.c.Size(), len(tc.fs), func(ma core.MiddleAssignment, fixedFrom int) {
				want, err := referenceBound(tc.c, tc.fs, ma, fixedFrom)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, ok := b.bound64(ma, fixedFrom); !ok {
					t.Fatalf("ma=%v fixedFrom=%d: integer path fell back", ma, fixedFrom)
				}
				for _, bd := range []*ThroughputBounder{b, forced} {
					r, got, err := bd.Bound(ma, fixedFrom)
					if err != nil {
						t.Fatal(err)
					}
					// The integer path returns its Rat64, the fallback a
					// *big.Rat.
					if (got == nil) != (bd == b) {
						t.Fatalf("ma=%v fixedFrom=%d failAt=%d: *big.Rat form %v", ma, fixedFrom, bd.t.failAt, got)
					}
					if got == nil {
						got = r.Rat()
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("ma=%v fixedFrom=%d failAt=%d: bound %s, reference %s",
							ma, fixedFrom, bd.t.failAt, rational.String(got), rational.String(want))
					}
				}
				visits++
			})
			if visits < 100 {
				t.Fatalf("only %d prefixes visited", visits)
			}
		})
	}
}

// TestThroughputBounderErrors: invalid arguments fall back and return
// the reference path's errors.
func TestThroughputBounderErrors(t *testing.T) {
	c, fs := benchShape()
	b := NewThroughputBounder(c, fs)
	for _, tc := range []struct {
		ma        core.MiddleAssignment
		fixedFrom int
	}{
		{core.MiddleAssignment{1, 1}, 0},
		{core.MiddleAssignment{1, 1, 1, 1, 1}, -1},
		{core.MiddleAssignment{1, 1, 1, 1, 1}, 6},
		{core.MiddleAssignment{1, 1, 1, 1, 4}, 2},
	} {
		_, want := referenceBound(c, fs, tc.ma, tc.fixedFrom)
		_, _, got := b.Bound(tc.ma, tc.fixedFrom)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("Bound(%v, %d): err %v, want %v", tc.ma, tc.fixedFrom, got, want)
		}
	}
}

// TestThroughputBounderCertificate: the integer certificate accepts
// every dual-feasible vector (a looser one yields a looser bound) and
// rejects a negative multiplier or an uncovered column, independently
// of the simplex.
func TestThroughputBounderCertificate(t *testing.T) {
	c, fs := benchShape()
	b := NewThroughputBounder(c, fs)
	ma := core.MiddleAssignment{1, 1, 2, 3, 1}
	if !b.activate(ma, 2) {
		t.Fatal("activate declined a valid prefix")
	}
	defer b.deactivate()
	if optimal, ok := b.solveLP(); !optimal || !ok {
		t.Fatalf("solveLP: optimal=%v ok=%v", optimal, ok)
	}
	nv, d := len(b.cols), b.t.d
	opt := append([]int64(nil), b.t.z[nv:nv+len(b.rows)]...)
	num, den, ok := b.certify(opt, d)
	if !ok {
		t.Fatal("optimal dual rejected")
	}
	want, err := referenceBound(c, fs, ma, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := big.NewRat(num, den); got.Cmp(want) != 0 {
		t.Fatalf("certified %s, reference %s", rational.String(got), rational.String(want))
	}

	// All-ones multipliers cover every column (each crosses a lane), so
	// they certify the looser bound Σ cap.
	ones := make([]int64, len(opt))
	for i := range ones {
		ones[i] = 1
	}
	if num, den, ok := b.certify(ones, 1); !ok || big.NewRat(num, den).Cmp(want) < 0 {
		t.Errorf("all-ones dual: ok=%v bound %d/%d, want a bound ≥ %s", ok, num, den, rational.String(want))
	}
	// A negative multiplier is rejected even when every column stays
	// covered (each path crosses several lanes at 10 apiece).
	for i := range ones {
		neg := make([]int64, len(ones))
		for k := range neg {
			neg[k] = 10
		}
		neg[i] = -1
		if _, _, ok := b.certify(neg, 1); ok {
			t.Errorf("negative multiplier on row %d accepted", i)
		}
	}
	if _, _, ok := b.certify(make([]int64, len(opt)), d); ok {
		t.Error("all-zero dual accepted: no column is covered")
	}
}

// TestThroughputBounderAllocs pins the steady state: a Bound call on
// the integer path allocates nothing, its bound included.
func TestThroughputBounderAllocs(t *testing.T) {
	c, fs := benchShape()
	b := NewThroughputBounder(c, fs)
	ma := core.MiddleAssignment{1, 1, 2, 3, 1}
	if _, _, ok := b.bound64(ma, 2); !ok {
		t.Fatal("integer path fell back")
	}
	got := testing.AllocsPerRun(100, func() {
		if _, _, err := b.Bound(ma, 2); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("Bound allocates %.1f times per call, want 0", got)
	}
}

// BenchmarkThroughputBound times one sweep over every prefix of the
// search mix's 5-flow C_3 shape: the integer bounder against the
// rebuilt, *big.Rat-certified reference.
func BenchmarkThroughputBound(b *testing.B) {
	c, fs := benchShape()
	type prefix struct {
		ma        core.MiddleAssignment
		fixedFrom int
	}
	var prefixes []prefix
	eachPrefix(c.Size(), len(fs), func(ma core.MiddleAssignment, fixedFrom int) {
		prefixes = append(prefixes, prefix{ma.Copy(), fixedFrom})
	})
	b.Run("bounder", func(b *testing.B) {
		tb := NewThroughputBounder(c, fs)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range prefixes {
				if _, _, err := tb.Bound(p.ma, p.fixedFrom); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range prefixes {
				if _, err := referenceBound(c, fs, p.ma, p.fixedFrom); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
