package core

import (
	"testing"

	"closnet/internal/rational"
	"closnet/internal/topology"
)

// partialCollection is a contended C_3 instance: ToR pairs colliding at
// the fabric, so partial bounds actually depend on which flows are
// fixed where.
func partialCollection(c *topology.Clos) Collection {
	return Collection{}.
		Add(c.Source(1, 1), c.Dest(1, 1), 1).
		Add(c.Source(1, 2), c.Dest(2, 1), 1).
		Add(c.Source(2, 1), c.Dest(1, 2), 1).
		Add(c.Source(2, 2), c.Dest(2, 2), 1)
}

// forEachAssignment enumerates all n^k values of positions [from, from+k)
// of ma (the other positions are left untouched) and calls fn per state.
func forEachAssignment(ma MiddleAssignment, from, k, n int, fn func()) {
	if k == 0 {
		fn()
		return
	}
	for v := 1; v <= n; v++ {
		ma[from] = v
		forEachAssignment(ma, from+1, k-1, n, fn)
	}
}

// boundAlloc materializes a Bound result, lane or promoted, as a fresh
// Allocation.
func boundAlloc(pe *PartialEvaluator, ma MiddleAssignment, fixedFrom int) (Allocation, error) {
	lane, a, err := pe.Bound(ma, fixedFrom)
	if a == nil && err == nil {
		a = AllocOf(lane)
	}
	return a, err
}

// TestPartialBoundLeafExact: with every flow fixed the trunk constraints
// are implied by the real per-middle links, so Bound must equal the
// exact evaluation — same rationals — on every full assignment.
func TestPartialBoundLeafExact(t *testing.T) {
	c := topology.MustClos(3)
	fs := partialCollection(c)
	pe, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	ma := make(MiddleAssignment, len(fs))
	forEachAssignment(ma, 0, len(fs), c.Size(), func() {
		exact, err := referenceClos(c, fs, ma)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := boundAlloc(pe, ma, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bound.Equal(exact) {
			t.Fatalf("ma=%v: leaf bound %v != exact %v", ma, bound, exact)
		}
	})
}

// TestPartialBoundAdmissible is the correctness core of the pruned
// search: for every fixed suffix at every depth, the trunk-relaxation
// bound must lex-dominate (sorted order, Definition 2.4) the exact
// max-min fair vector of EVERY completion. A single violation would let
// the branch-and-bound prune the true optimum.
func TestPartialBoundAdmissible(t *testing.T) {
	for _, tc := range []struct {
		n  int
		fs func(*topology.Clos) Collection
	}{
		{3, partialCollection},
		{4, func(c *topology.Clos) Collection {
			return partialCollection(c).Add(c.Source(3, 1), c.Dest(1, 1), 1)
		}},
	} {
		c := topology.MustClos(tc.n)
		fs := tc.fs(c)
		pe, err := NewPartialEvaluator(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		nf := len(fs)
		ma := make(MiddleAssignment, nf)
		for fixedFrom := 0; fixedFrom <= nf; fixedFrom++ {
			forEachAssignment(ma, fixedFrom, nf-fixedFrom, tc.n, func() {
				bound, err := boundAlloc(pe, ma, fixedFrom)
				if err != nil {
					t.Fatal(err)
				}
				forEachAssignment(ma, 0, fixedFrom, tc.n, func() {
					exact, err := referenceClos(c, fs, ma)
					if err != nil {
						t.Fatal(err)
					}
					if rational.LexCompareSorted(rational.Vec(bound), rational.Vec(exact)) < 0 {
						t.Fatalf("n=%d fixedFrom=%d ma=%v: bound %v below completion %v",
							tc.n, fixedFrom, ma, bound.SortedCopy(), exact.SortedCopy())
					}
				})
			})
		}
	}
}

// TestPartialBound64MatchesBig: the Rat64 fast path and the pinned
// big.Rat path must agree exactly at every depth — the differential
// that keeps the overflow-promotion seam honest.
func TestPartialBound64MatchesBig(t *testing.T) {
	c := topology.MustClos(3)
	fs := partialCollection(c)
	fast, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	slow.ForceBig(true)
	nf := len(fs)
	ma := make(MiddleAssignment, nf)
	for fixedFrom := 0; fixedFrom <= nf; fixedFrom++ {
		forEachAssignment(ma, fixedFrom, nf-fixedFrom, c.Size(), func() {
			lane, promoted, err := fast.Bound(ma, fixedFrom)
			if err != nil || promoted != nil {
				t.Fatalf("fixedFrom=%d ma=%v: fast path promoted (%v) or failed: %v", fixedFrom, ma, promoted, err)
			}
			a := AllocOf(lane)
			lane, b, err := slow.Bound(ma, fixedFrom)
			if err != nil || lane != nil || b == nil {
				t.Fatalf("fixedFrom=%d ma=%v: ForceBig returned lane %v, allocation %v, err %v", fixedFrom, ma, lane, b, err)
			}
			if !a.Equal(b) {
				t.Fatalf("fixedFrom=%d ma=%v: fast %v != big %v", fixedFrom, ma, a, b)
			}
		})
	}
}

func TestPartialBoundErrors(t *testing.T) {
	c := topology.MustClos(2)
	fs := partialCollection(topology.MustClos(2))
	if _, err := NewPartialEvaluator(c, Collection{{Src: c.Input(1), Dst: c.Dest(1, 1)}}); err == nil {
		t.Error("non-server source accepted")
	}
	pe, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pe.Bound(make(MiddleAssignment, 1), 0); err == nil {
		t.Error("short assignment accepted")
	}
	ma := make(MiddleAssignment, len(fs))
	if _, _, err := pe.Bound(ma, -1); err == nil {
		t.Error("negative fixedFrom accepted")
	}
	if _, _, err := pe.Bound(ma, len(fs)+1); err == nil {
		t.Error("fixedFrom beyond the flow count accepted")
	}
	if _, _, err := pe.Bound(ma, 0); err == nil {
		t.Error("fixed middle 0 accepted")
	}
	ma[len(ma)-1] = c.Size() + 1
	if _, _, err := pe.Bound(ma, len(ma)-1); err == nil {
		t.Error("fixed middle beyond n accepted")
	}
}

// FuzzPartialBoundAdmissible drives the trunk relaxation with arbitrary
// byte-encoded C_2 instances: at every depth the bound must dominate
// all completions, equal the exact evaluation at the leaves, and agree
// between the Rat64 and big.Rat paths.
func FuzzPartialBoundAdmissible(f *testing.F) {
	f.Add([]byte{0, 0, 0}, uint8(0))
	f.Add([]byte{1, 2, 1, 3, 4, 0, 5, 6, 1}, uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, from uint8) {
		c := topology.MustClos(2)
		fs := Collection{}
		var ma MiddleAssignment
		for i := 0; i+2 < len(data) && len(fs) < 6; i += 3 {
			si := int(data[i]%4) + 1
			sj := int(data[i]%2) + 1
			di := int(data[i+1]%4) + 1
			dj := int(data[i+1]%2) + 1
			fs = fs.Add(c.Source(si, sj), c.Dest(di, dj), 1)
			ma = append(ma, int(data[i+2]%2)+1)
		}
		if len(fs) == 0 {
			return
		}
		fixedFrom := int(from) % (len(fs) + 1)
		pe, err := NewPartialEvaluator(c, fs)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		big := func() *PartialEvaluator {
			e, err := NewPartialEvaluator(c, fs)
			if err != nil {
				t.Fatal(err)
			}
			e.ForceBig(true)
			return e
		}()
		bound, err := boundAlloc(pe, ma, fixedFrom)
		if err != nil {
			t.Fatalf("bound: %v", err)
		}
		bigBound, err := boundAlloc(big, ma, fixedFrom)
		if err != nil {
			t.Fatalf("big bound: %v", err)
		}
		if !bound.Equal(bigBound) {
			t.Fatalf("fast %v != big %v", bound, bigBound)
		}
		forEachAssignment(ma, 0, fixedFrom, c.Size(), func() {
			exact, err := referenceClos(c, fs, ma)
			if err != nil {
				t.Fatal(err)
			}
			if rational.LexCompareSorted(rational.Vec(bound), rational.Vec(exact)) < 0 {
				t.Fatalf("fixedFrom=%d ma=%v: bound %v below completion %v",
					fixedFrom, ma, bound.SortedCopy(), exact.SortedCopy())
			}
			if fixedFrom == 0 && !bound.Equal(exact) {
				t.Fatalf("leaf bound %v != exact %v", bound, exact)
			}
		})
	})
}
