package search

import (
	"testing"

	"closnet/internal/core"
	"closnet/internal/topology"
)

// newObjective builds one objective of the driver.
type newObjective func(topology.Fabric, core.Collection, Options) (*objective, error)

// screenedObjectives are the objectives whose leaf blocks screen
// candidates on their Rat64 lanes, with the full-space oracle of each.
var screenedObjectives = map[string]struct {
	obj    newObjective
	oracle func(*testing.T, topology.Fabric, core.Collection) *Result
}{
	"lex":        {lexObjective, oracleLex},
	"throughput": {throughputObjective, oracleThroughput},
}

// runBlocks runs the driver with an explicit scan block size.
func runBlocks(t *testing.T, c topology.Fabric, fs core.Collection, opts Options, mk newObjective, block int) *Result {
	t.Helper()
	obj, err := mk(c, fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(c, fs, opts, obj, block)
	if err != nil {
		t.Fatalf("workers=%d block=%d: %v", opts.Workers, block, err)
	}
	return res
}

// TestBlockSearchEquivalence is the bit-identity proof of the block
// scan: over the adversarial corpus instances, block sizes that put
// block boundaries inside shards and leave short tail blocks, at
// worker counts {1, 2, 4}, return exactly the assignment, allocation
// and state count of the default schedule — whose incumbent is the
// full-space oracle's — for both screened objectives.
func TestBlockSearchEquivalence(t *testing.T) {
	for name, in := range equivalenceInstances(t) {
		for objName, o := range screenedObjectives {
			baseline := runBlocks(t, in.c, in.fs, Options{Workers: 1}, o.obj, scanBlock)
			want := o.oracle(t, in.c, in.fs)
			if !sameAssignment(baseline.Assignment, want.Assignment) || !baseline.Allocation.Equal(want.Allocation) {
				t.Errorf("%s/%s: scan %v %v, oracle %v %v", name, objName,
					baseline.Assignment, baseline.Allocation, want.Assignment, want.Allocation)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, bs := range []int{1, 3, 5, scanBlock} {
					res := runBlocks(t, in.c, in.fs, Options{Workers: workers}, o.obj, bs)
					checkSameResult(t, name+"/"+objName+" block", workers, baseline, res)
				}
			}
		}
	}
}

// TestBlockPrunedEquivalence: pruned mode evaluates its leaves through
// the same leaf-block evaluator; the incumbent must still be
// bit-identical to the full-space oracle's. States is not compared —
// pruned counts bound plus leaf evaluations by design.
func TestBlockPrunedEquivalence(t *testing.T) {
	for name, in := range equivalenceInstances(t) {
		for objName, o := range screenedObjectives {
			want := o.oracle(t, in.c, in.fs)
			pruned := runBlocks(t, in.c, in.fs, Options{Pruned: true}, o.obj, scanBlock)
			if !sameAssignment(want.Assignment, pruned.Assignment) {
				t.Errorf("%s/%s pruned: assignment %v != oracle %v",
					name, objName, pruned.Assignment, want.Assignment)
			}
			if !want.Allocation.Equal(pruned.Allocation) {
				t.Errorf("%s/%s pruned: allocation %v != oracle %v",
					name, objName, pruned.Allocation, want.Allocation)
			}
		}
	}
}

// TestBlockFullSpaceEquivalence: the block scan is not canonical-space
// specific — the full space under ragged blocks matches the full-space
// oracle exactly, States included.
func TestBlockFullSpaceEquivalence(t *testing.T) {
	for name, in := range equivalenceInstances(t) {
		for objName, o := range screenedObjectives {
			want := o.oracle(t, in.c, in.fs)
			for _, workers := range []int{1, 2, 4} {
				res := runBlocks(t, in.c, in.fs, Options{FullSpace: true, Workers: workers}, o.obj, 7)
				checkSameResult(t, name+"/"+objName+" full-space block", workers, want, res)
			}
		}
	}
}
