package search

import (
	"context"
	"math/big"
	"strings"
	"testing"

	"closnet/internal/core"
	"closnet/internal/corpus"
	"closnet/internal/lp"
	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// prunedCase is one instance of the pruned-equals-exhaustive
// equivalence corpus: every exhaustively searchable paper instance plus
// the contended bench shapes.
type prunedCase struct {
	name string
	c    topology.Fabric
	fs   core.Collection
}

// searchBenchInstance mirrors closbench's benchInstance: flows
// alternating between cross-ToR and same-ToR destinations, the
// contended shape of the BENCH_search.json rows.
func searchBenchInstance(n, flows int) (*topology.Clos, core.Collection) {
	c := topology.MustClos(n)
	fs := core.Collection{}
	for f := 0; f < flows; f++ {
		i := f%n + 1
		if f%2 == 0 {
			fs = fs.Add(c.Source(i, 1), c.Dest(i%n+1, 1), 1)
		} else {
			fs = fs.Add(c.Source(i, 1), c.Dest(i, 1), 1)
		}
	}
	return c, fs
}

func prunedCases(t *testing.T) []prunedCase {
	t.Helper()
	var cases []prunedCase
	add := func(name string, n int) {
		scens, _, err := corpus.Scenarios(n, []string{name})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scens {
			c, fs, _, _, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, prunedCase{name: s.Name, c: c, fs: fs})
		}
	}
	add("example23", 0)
	add("theorem34k2", 3)
	add("theorem34k2", 4)
	add("theorem34k8", 3)
	jc, jfs := journalInstance()
	cases = append(cases, prunedCase{name: "journal_c3", c: jc, fs: jfs})
	bc, bfs := searchBenchInstance(4, 6)
	cases = append(cases, prunedCase{name: "bench_c4_f6", c: bc, fs: bfs})
	return cases
}

// TestPrunedLexMatchesExhaustive is the tentpole equivalence suite: on
// every searchable instance of the §4/§5 corpus the branch-and-bound
// must return the bit-identical incumbent — same assignment, same
// rationals — as the exhaustive canonical scan at every worker count
// and as the full-space oracle.
func TestPrunedLexMatchesExhaustive(t *testing.T) {
	for _, tc := range prunedCases(t) {
		pruned, err := LexMaxMin(tc.c, tc.fs, Options{Pruned: true})
		if err != nil {
			t.Fatalf("%s: pruned: %v", tc.name, err)
		}
		oracle := oracleLex(t, tc.c, tc.fs)
		if !sameAssignment(pruned.Assignment, oracle.Assignment) || !pruned.Allocation.Equal(oracle.Allocation) {
			t.Errorf("%s: pruned diverged from the full-space oracle:\n%v %v\n%v %v",
				tc.name, pruned.Assignment, pruned.Allocation, oracle.Assignment, oracle.Allocation)
		}
		for _, workers := range []int{1, 2, 4} {
			ex, err := LexMaxMin(tc.c, tc.fs, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !sameAssignment(pruned.Assignment, ex.Assignment) || !pruned.Allocation.Equal(ex.Allocation) {
				t.Errorf("%s workers=%d: pruned incumbent differs:\npruned:     %v %v\nexhaustive: %v %v",
					tc.name, workers, pruned.Assignment, pruned.Allocation, ex.Assignment, ex.Allocation)
			}
		}
	}
}

// TestPrunedThroughputMatchesExhaustive: same contract for the
// throughput objective, whose exhaustive scan early-exits on the
// matching bound — the branch-and-bound must land on the same
// earliest-rank state.
func TestPrunedThroughputMatchesExhaustive(t *testing.T) {
	for _, tc := range prunedCases(t) {
		if testing.Short() && tc.name == "theorem34k8" {
			continue // LP bound per node; skip the 10-flow case under -short
		}
		pruned, err := ThroughputMaxMin(tc.c, tc.fs, Options{Pruned: true})
		if err != nil {
			t.Fatalf("%s: pruned: %v", tc.name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			ex, err := ThroughputMaxMin(tc.c, tc.fs, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !sameAssignment(pruned.Assignment, ex.Assignment) || !pruned.Allocation.Equal(ex.Allocation) {
				t.Errorf("%s workers=%d: pruned incumbent differs:\npruned:     %v %v\nexhaustive: %v %v",
					tc.name, workers, pruned.Assignment, pruned.Allocation, ex.Assignment, ex.Allocation)
			}
		}
	}
}

// TestPrunedC5Reduction pins the acceptance bar of the pruned mode: on
// the 7-flow C_5 lex benchmark the branch-and-bound must visit at least
// 5x fewer states (bound plus leaf evaluations) than the canonical
// exhaustive scan, with a bit-identical incumbent. The measured ratio
// is ~65x; 5x leaves headroom for bound tweaks without masking a
// pruning regression.
func TestPrunedC5Reduction(t *testing.T) {
	c, fs := searchBenchInstance(5, 7)
	ex, err := LexMaxMin(c, fs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := LexMaxMin(c, fs, Options{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssignment(pruned.Assignment, ex.Assignment) || !pruned.Allocation.Equal(ex.Allocation) {
		t.Fatalf("pruned incumbent differs:\npruned:     %v %v\nexhaustive: %v %v",
			pruned.Assignment, pruned.Allocation, ex.Assignment, ex.Allocation)
	}
	if pruned.States <= 0 || ex.States < 5*pruned.States {
		t.Errorf("pruning below the 5x bar: exhaustive %d states, pruned %d (%.1fx)",
			ex.States, pruned.States, float64(ex.States)/float64(pruned.States))
	}
}

// TestThroughputBoundAdmissiblePrefixes cross-checks the LP bound the
// throughput branch-and-bound prunes on, on a Clos and a fat-tree
// instance: at every depth, for every sampled fixed suffix, the
// lp.ThroughputBounder bound must exactly equal the certified
// splittable bound over lp.PrefixPaths, both capped by the matching
// bound exactly as the branch-and-bound caps them, and must dominate
// the throughput of every completion.
func TestThroughputBoundAdmissiblePrefixes(t *testing.T) {
	c, fs := journalInstance()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	ftFlows := core.Collection{}.
		Add(ft.Source(1, 1), ft.Dest(3, 1), 1).
		Add(ft.Source(2, 1), ft.Dest(3, 2), 1).
		Add(ft.Source(3, 2), ft.Dest(1, 1), 1).
		Add(ft.Source(5, 1), ft.Dest(1, 2), 1)
	for _, tc := range []struct {
		name string
		c    topology.Fabric
		fs   core.Collection
	}{{"clos3", c, fs}, {"fattree4", ft, ftFlows}} {
		t.Run(tc.name, func(t *testing.T) { checkThroughputBoundPrefixes(t, tc.c, tc.fs) })
	}
}

func checkThroughputBoundPrefixes(t *testing.T, c topology.Fabric, fs core.Collection) {
	n := c.Size()
	nf := len(fs)
	ubRat, err := matchingBound(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	capped := func(b *big.Rat) *big.Rat {
		if ubRat != nil && b.Cmp(ubRat) > 0 {
			return new(big.Rat).Set(ubRat)
		}
		return b
	}
	net := c.Network()
	tb := lp.NewThroughputBounder(c, fs)
	ma := make(core.MiddleAssignment, nf)
	walk := func() {
		for fixedFrom := 0; fixedFrom <= nf; fixedFrom++ {
			paths, err := lp.PrefixPaths(c, fs, ma, fixedFrom)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := lp.SplittableThroughputBound(net, fs, paths)
			if err != nil {
				t.Fatal(err)
			}
			bound := capped(ref)
			r, got, err := tb.Bound(ma, fixedFrom)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				got = r.Rat()
			}
			if got.Cmp(ref) != 0 || capped(got).Cmp(bound) != 0 {
				t.Fatalf("fixedFrom=%d ma=%v: bounder %s, reference %s (capped %s)",
					fixedFrom, ma, rational.String(got), rational.String(ref), rational.String(bound))
			}
			// Every completion of the fixed suffix stays below the bound.
			comp := make(core.MiddleAssignment, nf)
			copy(comp, ma)
			var complete func(p int)
			complete = func(p int) {
				if p == fixedFrom {
					a, err := referenceClos(c, fs, comp)
					if err != nil {
						t.Fatal(err)
					}
					if thr := core.Throughput(a); thr.Cmp(bound) > 0 {
						t.Fatalf("fixedFrom=%d ma=%v: completion throughput %s above bound %s",
							fixedFrom, comp, rational.String(thr), rational.String(bound))
					}
					return
				}
				for v := 1; v <= n; v++ {
					comp[p] = v
					complete(p + 1)
				}
			}
			complete(0)
		}
	}
	// Sample the suffix space: all assignments of the two highest flows,
	// lower flows pinned to 1 — n² suffixes x |F|+1 depths x up to
	// n^|F| completions keeps the LP count bounded.
	for v2 := 1; v2 <= n; v2++ {
		for v3 := 1; v3 <= n; v3++ {
			for i := range ma {
				ma[i] = 1
			}
			ma[nf-2], ma[nf-1] = v2, v3
			walk()
		}
	}
}

func TestPrunedOptionErrors(t *testing.T) {
	c, fs := journalInstance()
	if _, err := LexMaxMin(c, fs, Options{Pruned: true, FullSpace: true}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("lex Pruned+FullSpace: err = %v, want mutual-exclusion error", err)
	}
	if _, err := ThroughputMaxMin(c, fs, Options{Pruned: true, FullSpace: true}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("throughput Pruned+FullSpace: err = %v, want mutual-exclusion error", err)
	}
	demands := make(rational.Vec, len(fs))
	for i := range demands {
		demands[i] = rational.Int(1)
	}
	if _, err := RelativeMaxMin(c, fs, demands, Options{Pruned: true}); err == nil ||
		!strings.Contains(err.Error(), "no pruned mode") {
		t.Errorf("relative Pruned: err = %v, want no-pruned-mode error", err)
	}
}

func TestPrunedEmptyCollection(t *testing.T) {
	c := topology.MustClos(2)
	res, err := LexMaxMin(c, nil, Options{Pruned: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 0 || len(res.Allocation) != 0 {
		t.Errorf("unexpected result %+v", res)
	}
}

// TestPrunedStateCap: the pruned mode enforces the same state budget as
// the exhaustive scan — the canonical space size is checked up front.
func TestPrunedStateCap(t *testing.T) {
	c := topology.MustClos(3)
	fs := core.Collection{}
	for i := 0; i < 20; i++ {
		fs = fs.Add(c.Source(1, 1), c.Dest(1, 1), 1)
	}
	if _, err := LexMaxMin(c, fs, Options{Pruned: true, MaxStates: 1000}); err == nil {
		t.Error("pruned search accepted a space beyond MaxStates")
	}
}

// TestPrunedOpensNoBlockSpans: the leaf blocks of a pruned search open
// no core.block_fill spans — the server traces every request into its
// flight recorder — while the scan opens one per block.
func TestPrunedOpensNoBlockSpans(t *testing.T) {
	c, fs := journalInstance()
	for _, pruned := range []bool{true, false} {
		tr := obs.NewTrace(nil, nil)
		root, ctx := tr.Start(context.Background(), "test")
		if _, err := LexMaxMin(c, fs, Options{Pruned: pruned, Workers: 1, Ctx: ctx}); err != nil {
			t.Fatal(err)
		}
		root.End()
		count := map[string]int{}
		for _, s := range tr.Finish().Records() {
			count[s.Name]++
		}
		if count["search.run"] != 1 {
			t.Errorf("pruned=%v: %d search.run spans, want 1", pruned, count["search.run"])
		}
		if want := map[bool]int{true: 0, false: 1}[pruned]; count["core.block_fill"] != want {
			t.Errorf("pruned=%v: %d core.block_fill spans, want %d", pruned, count["core.block_fill"], want)
		}
	}
}
