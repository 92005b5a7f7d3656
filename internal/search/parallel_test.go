package search

import (
	"context"

	"testing"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// parallelWorkerCounts are the explicit worker counts the equivalence
// tests compare against the serial path. They exercise the sharded
// engine even on a single-core machine: goroutine interleaving (and the
// race detector's happens-before checking) does not require parallelism.
var parallelWorkerCounts = []int{2, 4, 8}

// equivalenceInstances are adversarial families small enough for
// exhaustive search: Example 2.3 (64 states), the Theorem 3.4 gadget
// (16 states), the Theorem 5.4 doom gadget (81 states) and a 6-flow
// prefix of the Theorem 4.3 starvation instance (729 states).
func equivalenceInstances(t *testing.T) map[string]struct {
	c  *topology.Clos
	fs core.Collection
} {
	t.Helper()
	out := make(map[string]struct {
		c  *topology.Clos
		fs core.Collection
	})
	add := func(name string, c *topology.Clos, fs core.Collection) {
		out[name] = struct {
			c  *topology.Clos
			fs core.Collection
		}{c, fs}
	}
	ex, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	add("example-2.3", ex.Clos, ex.Flows)
	t34, err := adversary.Theorem34(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("theorem-3.4(2,2)", t34.Clos, t34.Flows)
	t54, err := adversary.Theorem54(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("theorem-5.4(3,2)", t54.Clos, t54.Flows)
	t43, err := adversary.Theorem43(3)
	if err != nil {
		t.Fatal(err)
	}
	add("theorem-4.3(3)-prefix", t43.Clos, t43.Flows[:6])
	return out
}

func sameAssignment(a, b core.MiddleAssignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkSameResult(t *testing.T, name string, workers int, serial, par *Result) {
	t.Helper()
	if !sameAssignment(serial.Assignment, par.Assignment) {
		t.Errorf("%s workers=%d: assignment %v != serial %v",
			name, workers, par.Assignment, serial.Assignment)
	}
	if !serial.Allocation.Equal(par.Allocation) {
		t.Errorf("%s workers=%d: allocation %v != serial %v",
			name, workers, par.Allocation, serial.Allocation)
	}
	if serial.States != par.States {
		t.Errorf("%s workers=%d: states %d != serial %d",
			name, workers, par.States, serial.States)
	}
}

// TestLexMaxMinParallelEquivalence: the parallel engine returns the
// bit-identical assignment, allocation and state count as one worker,
// for every worker count, on both enumeration spaces — and both spaces
// return exactly the incumbent of the full-space oracle.
func TestLexMaxMinParallelEquivalence(t *testing.T) {
	for name, in := range equivalenceInstances(t) {
		for _, fullSpace := range []bool{false, true} {
			serial, err := LexMaxMin(in.c, in.fs, Options{Workers: 1, FullSpace: fullSpace})
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			for _, w := range parallelWorkerCounts {
				par, err := LexMaxMin(in.c, in.fs, Options{Workers: w, FullSpace: fullSpace})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, w, err)
				}
				checkSameResult(t, name, w, serial, par)
			}
		}
		// Cross-space bit-identity: the canonical incumbent IS the one the
		// full-space oracle reports (min-rank optimum), not merely an
		// isomorphic relabeling of it; the full-space scan matches the
		// oracle's States too.
		oracle := oracleLex(t, in.c, in.fs)
		full, err := LexMaxMin(in.c, in.fs, Options{Workers: 1, FullSpace: true})
		if err != nil {
			t.Fatalf("%s full space: %v", name, err)
		}
		checkSameResult(t, name+"/full-space oracle", 1, oracle, full)
		canon, err := LexMaxMin(in.c, in.fs, Options{})
		if err != nil {
			t.Fatalf("%s canonical: %v", name, err)
		}
		if !sameAssignment(oracle.Assignment, canon.Assignment) {
			t.Errorf("%s: canonical assignment %v != full-space oracle %v",
				name, canon.Assignment, oracle.Assignment)
		}
		if !oracle.Allocation.Equal(canon.Allocation) {
			t.Errorf("%s: canonical allocation %v != full-space oracle %v",
				name, canon.Allocation, oracle.Allocation)
		}
		if canon.States >= oracle.States {
			t.Errorf("%s: canonicalization did not reduce states: %d vs %d",
				name, canon.States, oracle.States)
		}
	}
}

// TestThroughputMaxMinCanonicalOracle: same cross-space bit-identity for
// the early-exit objective — the canonical optimizer's incumbent matches
// the full-space oracle on assignment and allocation (States counts the
// spaces' own deterministic prefixes, so it legitimately differs), and
// the full-space scan matches it States included.
func TestThroughputMaxMinCanonicalOracle(t *testing.T) {
	for name, in := range equivalenceInstances(t) {
		oracle := oracleThroughput(t, in.c, in.fs)
		full, err := ThroughputMaxMin(in.c, in.fs, Options{Workers: 1, FullSpace: true})
		if err != nil {
			t.Fatalf("%s full space: %v", name, err)
		}
		checkSameResult(t, name+"/full-space oracle", 1, oracle, full)
		canon, err := ThroughputMaxMin(in.c, in.fs, Options{})
		if err != nil {
			t.Fatalf("%s canonical: %v", name, err)
		}
		if !sameAssignment(oracle.Assignment, canon.Assignment) {
			t.Errorf("%s: canonical assignment %v != full-space oracle %v",
				name, canon.Assignment, oracle.Assignment)
		}
		if !oracle.Allocation.Equal(canon.Allocation) {
			t.Errorf("%s: canonical allocation %v != full-space oracle %v",
				name, canon.Allocation, oracle.Allocation)
		}
	}
}

// TestThroughputMaxMinParallelEquivalence covers the objective with an
// early-exit condition (the Lemma 3.2 matching bound): the deterministic
// stop-rank protocol must keep the result and States identical to serial
// even when workers abandon their shards.
func TestThroughputMaxMinParallelEquivalence(t *testing.T) {
	for name, in := range equivalenceInstances(t) {
		serial, err := ThroughputMaxMin(in.c, in.fs, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, w := range parallelWorkerCounts {
			par, err := ThroughputMaxMin(in.c, in.fs, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			checkSameResult(t, name, w, serial, par)
		}
	}
}

func TestRelativeMaxMinParallelEquivalence(t *testing.T) {
	ex, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RelativeMaxMin(ex.Clos, ex.Flows, ex.MacroRates, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parallelWorkerCounts {
		par, err := RelativeMaxMin(ex.Clos, ex.Flows, ex.MacroRates, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !sameAssignment(serial.Assignment, par.Assignment) {
			t.Errorf("workers=%d: assignment %v != serial %v", w, par.Assignment, serial.Assignment)
		}
		if !serial.Allocation.Equal(par.Allocation) {
			t.Errorf("workers=%d: allocation differs from serial", w)
		}
		if serial.MinRatio.Cmp(par.MinRatio) != 0 {
			t.Errorf("workers=%d: min ratio %v != serial %v", w, par.MinRatio, serial.MinRatio)
		}
		if serial.States != par.States {
			t.Errorf("workers=%d: states %d != serial %d", w, par.States, serial.States)
		}
	}
}

// TestThroughputEarlyExitStates: on the permutation workload the
// matching bound is reached before the space is exhausted, so States
// must be strictly below the full state count — and identical across
// worker counts, since States counts the deterministic prefix up to the
// stop rank rather than the raw number of evaluations performed.
func TestThroughputEarlyExitStates(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.Collection{}
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			fs = fs.Add(c.Source(i, j), c.Dest(i+2, j), 1)
		}
	}
	total := 8 // canonical count: Σ_{k≤2} S(4,k), down from 2^4 = 16
	serial, err := ThroughputMaxMin(c, fs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.States >= total {
		t.Fatalf("serial early exit did not trigger: %d states of %d", serial.States, total)
	}
	for _, w := range parallelWorkerCounts {
		par, err := ThroughputMaxMin(c, fs, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if par.States >= total {
			t.Errorf("workers=%d: early exit did not trigger: %d states of %d", w, par.States, total)
		}
		checkSameResult(t, "permutation", w, serial, par)
	}
}

// TestFeasibleRoutingParallelEquivalence: the parallel branch split
// returns the same verdict — and, for feasible instances, the identical
// depth-first-earliest witness — as the serial backtracker.
func TestFeasibleRoutingParallelEquivalence(t *testing.T) {
	type query struct {
		name    string
		c       *topology.Clos
		fs      core.Collection
		demands rational.Vec
	}
	var queries []query
	ex, err := adversary.Example23()
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, query{"example-2.3 witness rates", ex.Clos, ex.Flows, ex.WitnessRates})
	for _, n := range []int{3, 4} {
		in, err := adversary.Theorem42(n)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{in.Name + " macro rates", in.Clos, in.Flows, in.MacroRates})
		t3 := in.FlowsOfType(adversary.Type3)[0]
		queries = append(queries, query{in.Name + " sans type-3", in.Clos, in.Flows[:t3], in.MacroRates[:t3]})
	}
	for _, q := range queries {
		sw, sok, err := FeasibleRouting(context.Background(), q.c, q.fs, q.demands, 0, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", q.name, err)
		}
		for _, w := range parallelWorkerCounts {
			pw, pok, err := FeasibleRouting(context.Background(), q.c, q.fs, q.demands, 0, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", q.name, w, err)
			}
			if sok != pok {
				t.Errorf("%s workers=%d: feasible=%v, serial says %v", q.name, w, pok, sok)
				continue
			}
			if sok && !sameAssignment(sw, pw) {
				t.Errorf("%s workers=%d: witness %v != serial %v", q.name, w, pw, sw)
			}
		}
	}
}

// spaceOrder collects the whole space by walking a single cursor from
// rank 0.
func spaceOrder(s *space, numFlows int) []core.MiddleAssignment {
	ma := make(core.MiddleAssignment, numFlows)
	cur := s.seek(0, ma)
	order := make([]core.MiddleAssignment, 0, s.total())
	for rank := 0; rank < s.total(); rank++ {
		order = append(order, ma.Copy())
		cur.advance()
	}
	return order
}

// isCanonical reports whether ma is its orbit's minimum-rank element:
// the reversed digit string s[j] = ma[numFlows-1-j] is a restricted-
// growth string.
func isCanonical(ma core.MiddleAssignment) bool {
	max := 0
	for j := len(ma) - 1; j >= 0; j-- {
		if ma[j] > max+1 {
			return false
		}
		if ma[j] > max {
			max = ma[j]
		}
	}
	return true
}

// TestSpaceDecodeMatchesEnumerate: for both spaces, seek(rank) yields
// exactly the rank-th assignment of the reference enumeration order, and
// advance agrees with seek(rank+1) — the invariants the shard split
// depends on. The canonical reference order is the oracle's full-space
// order filtered to orbit-minimum representatives, which also proves
// the canonical space visits representatives in ascending full-space
// rank.
func TestSpaceDecodeMatchesEnumerate(t *testing.T) {
	for _, shape := range []struct{ n, numFlows, canonical int }{{3, 4, 14}, {4, 5, 51}, {2, 1, 1}} {
		n, numFlows := shape.n, shape.numFlows
		var fullOrder []core.MiddleAssignment
		if err := enumerate(n, numFlows, Options{}, func(ma core.MiddleAssignment) bool {
			fullOrder = append(fullOrder, ma.Copy())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var canonOrder []core.MiddleAssignment
		for _, ma := range fullOrder {
			if isCanonical(ma) {
				canonOrder = append(canonOrder, ma)
			}
		}
		// Σ_{k≤n} S(numFlows, k) orbit representatives.
		if len(canonOrder) != shape.canonical {
			t.Fatalf("n=%d: %d canonical states of %d, want %d", n, len(canonOrder), len(fullOrder), shape.canonical)
		}
		for _, tc := range []struct {
			name      string
			canonical bool
			order     []core.MiddleAssignment
		}{
			{"full", false, fullOrder},
			{"canonical", true, canonOrder},
		} {
			s, err := newSpace(n, numFlows, tc.canonical, DefaultMaxStates)
			if err != nil {
				t.Fatal(err)
			}
			if s.total() != len(tc.order) {
				t.Fatalf("%s n=%d: space says %d states, reference has %d", tc.name, n, s.total(), len(tc.order))
			}
			// seek(rank) must land on the rank-th reference state.
			decoded := make(core.MiddleAssignment, numFlows)
			for rank := range tc.order {
				s.seek(rank, decoded)
				if !sameAssignment(decoded, tc.order[rank]) {
					t.Fatalf("%s n=%d rank %d: seek %v, reference %v", tc.name, n, rank, decoded, tc.order[rank])
				}
			}
			// A single cursor advanced through the space must trace the
			// same order, and wrap back to rank 0.
			order := spaceOrder(s, numFlows)
			for rank, ma := range order {
				if !sameAssignment(ma, tc.order[rank]) {
					t.Fatalf("%s n=%d rank %d: advance %v, reference %v", tc.name, n, rank, ma, tc.order[rank])
				}
			}
			ma := make(core.MiddleAssignment, numFlows)
			cur := s.seek(s.total()-1, ma)
			cur.advance()
			if !sameAssignment(ma, tc.order[0]) {
				t.Errorf("%s n=%d: advance past the last rank gave %v, want rank 0 %v", tc.name, n, ma, tc.order[0])
			}
		}
	}
}

// TestFullSpaceCapFailsFast: a full space past the state cap errors
// before its suffix-count table is built — 4096^64 would otherwise be
// checked only after allocating 65 rows of 4097 entries.
func TestFullSpaceCapFailsFast(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := newSpace(4096, 64, false, DefaultMaxStates); err == nil {
			t.Fatal("full space past the cap accepted")
		}
	})
	if allocs > 8 {
		t.Errorf("rejecting the full space allocated %.0f times", allocs)
	}
	_, err := newSpace(3, 20, false, 1000)
	if want := "search: routing space exceeds state cap: 3^20 > 1000"; err == nil || err.Error() != want {
		t.Errorf("full-space error = %v, want %q", err, want)
	}
	_, err = newSpace(3, 20, true, 1000)
	if want := "search: routing space exceeds state cap: canonical space of 20 flows in C_3 > 1000"; err == nil || err.Error() != want {
		t.Errorf("canonical-space error = %v, want %q", err, want)
	}
}

// TestWorkersExceedingStates: more workers than states must degrade
// gracefully (shards of size ≤ 1) and still match serial.
func TestWorkersExceedingStates(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.Collection{}.
		Add(c.Source(1, 1), c.Dest(2, 1), 1).
		Add(c.Source(2, 1), c.Dest(1, 1), 1)
	serial, err := LexMaxMin(c, fs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := LexMaxMin(c, fs, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, "tiny", 64, serial, par)
}
