package search

import (
	"fmt"
	"testing"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/reference"
	"closnet/internal/topology"
)

// enumerate calls visit for every middle assignment of numFlows flows in
// C_n, in rank order. The assignment passed to visit is reused across
// calls; visit must copy it to retain it. Returning false from visit
// aborts the walk immediately — no further states are generated or
// visited.
func enumerate(n, numFlows int, opts Options, visit func(core.MiddleAssignment) bool) error {
	if stateCount(n, numFlows, opts.maxStates()) < 0 {
		return fmt.Errorf("%w: %d^%d > %d", ErrTooManyStates, n, numFlows, opts.maxStates())
	}
	ma := core.UniformAssignment(numFlows, 1)
	if !visit(ma) {
		return nil
	}
	for {
		// Increment the base-n counter over positions [0, numFlows).
		pos := 0
		for pos < numFlows {
			if ma[pos] < n {
				ma[pos]++
				break
			}
			ma[pos] = 1
			pos++
		}
		if pos == numFlows {
			return nil
		}
		if !visit(ma) {
			return nil
		}
	}
}

// oracle is the independent full-space oracle the equivalence tests
// check the driver against: the in-place counter walk of enumerate,
// evaluating referenceClos per state, keeping the first state of
// strictly highest value, and stopping at the first state whose value
// reaches ceiling (nil: never). It shares no ranking, block
// evaluation or incumbent code with the driver; States counts the
// states evaluated, which is the full-space scan's stop-rank prefix.
func oracle(t *testing.T, c topology.Fabric, fs core.Collection, value func(core.Allocation) rational.Vec, ceiling rational.Vec) *Result {
	t.Helper()
	if len(fs) == 0 {
		return &Result{Assignment: core.MiddleAssignment{}, Allocation: core.Allocation{}, States: 1}
	}
	var (
		res  Result
		best rational.Vec
		ferr error
	)
	err := enumerate(c.Size(), len(fs), Options{}, func(ma core.MiddleAssignment) bool {
		a, err := referenceClos(c, fs, ma)
		if err != nil {
			ferr = err
			return false
		}
		res.States++
		v := value(a)
		if best != nil && rational.LexCompare(v, best) <= 0 {
			return true
		}
		best, res.Allocation, res.Assignment = v, a, ma.Copy()
		return ceiling == nil || rational.LexCompare(v, ceiling) < 0
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		t.Fatalf("full-space oracle: %v", err)
	}
	return &res
}

// oracleLex is the oracle's lex-max-min optimum (Definition 2.4).
func oracleLex(t *testing.T, c topology.Fabric, fs core.Collection) *Result {
	t.Helper()
	return oracle(t, c, fs, func(a core.Allocation) rational.Vec { return a.SortedCopy() }, nil)
}

// oracleThroughput is the oracle's throughput-max-min optimum
// (Definition 2.5), stopping at the Lemma 3.2 matching bound.
func oracleThroughput(t *testing.T, c topology.Fabric, fs core.Collection) *Result {
	t.Helper()
	ub, err := matchingBound(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	var ceiling rational.Vec
	if ub != nil {
		ceiling = rational.Vec{ub}
	}
	return oracle(t, c, fs, func(a core.Allocation) rational.Vec { return rational.Vec{core.Throughput(a)} }, ceiling)
}

// TestEnumerateAborts: a visitor returning false must stop the walk
// immediately — no further states are visited.
func TestEnumerateAborts(t *testing.T) {
	for _, stopAfter := range []int{1, 3, 7} {
		visited := 0
		err := enumerate(3, 4, Options{}, func(core.MiddleAssignment) bool {
			visited++
			return visited < stopAfter
		})
		if err != nil {
			t.Fatal(err)
		}
		if visited != stopAfter {
			t.Errorf("stopAfter=%d: visited %d states", stopAfter, visited)
		}
	}
}

// referenceClos is reference.MaxMinFair over core.ClosRouting: the
// exact fill the oracles compare the kernel-driven search against,
// independent of the kernel.
func referenceClos(c topology.Fabric, fs core.Collection, ma core.MiddleAssignment) (core.Allocation, error) {
	r, err := core.ClosRouting(c, fs, ma)
	if err != nil {
		return nil, err
	}
	return reference.MaxMinFair(c.Network(), r)
}
