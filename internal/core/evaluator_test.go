package core

import (
	"math/rand"
	"testing"

	"closnet/internal/obs"
	"closnet/internal/topology"
)

// evaluatorCollection builds a mixed collection on C_n with contended
// sources and destinations, the shape that stresses the water filling.
func evaluatorCollection(c *topology.Clos) Collection {
	n := c.Size()
	fs := Collection{}
	for i := 1; i <= n; i++ {
		fs = fs.Add(c.Source(i, 1), c.Dest(i%n+1, 1), 1)
		fs = fs.Add(c.Source(i, 1), c.Dest(i, 1), 1)
	}
	return fs
}

// eval1 evaluates one assignment as a block of k = 1 — the per-state
// use of a BlockEvaluator — and materializes its allocation.
func eval1(b *BlockEvaluator, ma MiddleAssignment) (Allocation, error) {
	res, err := b.EvalBlock(ma, 1)
	if err != nil {
		return nil, err
	}
	return res.Alloc(0), nil
}

// TestEvaluatorMatchesClosMaxMinFair: a k = 1 block must return exactly
// the allocation ClosMaxMinFair promises, as the reference computes it
// (reference.MaxMinFair over ClosRouting) — same rationals, not merely
// equal floats — over every assignment of a small instance, on both the
// Rat64 kernel and the pinned big.Rat fallback.
func TestEvaluatorMatchesClosMaxMinFair(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c) // 4 flows: 2^4 = 16 assignments
	ev, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	evBig, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	evBig.ForceBig(true)
	ma := UniformAssignment(len(fs), 1)
	for rank := 0; rank < 16; rank++ {
		r := rank
		for fi := range ma {
			ma[fi] = 1 + r%2
			r /= 2
		}
		want, err := referenceClos(c, fs, ma)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		got, err := eval1(ev, ma)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if !got.Equal(want) {
			t.Errorf("rank %d (%v): Eval = %v, reference = %v", rank, ma, got, want)
		}
		big, err := eval1(evBig, ma)
		if err != nil {
			t.Fatalf("rank %d big: %v", rank, err)
		}
		if !big.Equal(want) {
			t.Errorf("rank %d (%v): ForceBig Eval = %v, reference = %v", rank, ma, big, want)
		}
	}
	if !ev.k.fast {
		t.Error("unit-capacity Clos did not enable the int64 fast path")
	}
	if ev.Promotions() != 0 {
		t.Errorf("unit-capacity instance promoted %d times", ev.Promotions())
	}
}

// TestEvaluatorMatchesRandom cross-checks scratch reuse across k = 1
// blocks on a larger instance with pseudo-random assignments: a stale
// buffer from a prior call would surface as a mismatch. The same
// evaluator alternates between the Rat64 kernel and the big.Rat path to
// prove the two share scratch without interference.
func TestEvaluatorMatchesRandom(t *testing.T) {
	c := topology.MustClos(4)
	fs := evaluatorCollection(c)
	ev, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ma := make(MiddleAssignment, len(fs))
	for trial := 0; trial < 200; trial++ {
		for fi := range ma {
			ma[fi] = 1 + rng.Intn(c.Size())
		}
		want, err := referenceClos(c, fs, ma)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ev.ForceBig(trial%3 == 2)
		got, err := eval1(ev, ma)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(want) {
			t.Errorf("trial %d (%v): Eval = %v, reference = %v", trial, ma, got, want)
		}
	}
	if ev.Promotions() != 0 {
		t.Errorf("unit-capacity instance promoted %d times", ev.Promotions())
	}
}

func TestEvaluatorErrors(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c)
	ev, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval1(ev, MiddleAssignment{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := UniformAssignment(len(fs), 1)
	bad[0] = 3
	if _, err := eval1(ev, bad); err == nil {
		t.Error("out-of-range middle accepted")
	}
	if _, err := NewBlockEvaluator(c, Collection{{Src: c.Input(1), Dst: c.Dest(1, 1)}}); err == nil {
		t.Error("non-server source accepted")
	}
}

// TestEvaluatorDisabledObsAllocParity pins the observability layer's
// zero-overhead contract on the per-state path: a block evaluator
// instrumented with a nil Obs (nil handles everywhere) allocates
// exactly as much per k = 1 evaluation as one never instrumented.
func TestEvaluatorDisabledObsAllocParity(t *testing.T) {
	c := topology.MustClos(4)
	fs := evaluatorCollection(c)
	plain, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	instr.Instrument(nil)
	ma := UniformAssignment(len(fs), 1)
	evalAllocs := func(ev *BlockEvaluator) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := eval1(ev, ma); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, withNil := evalAllocs(plain), evalAllocs(instr)
	if base != withNil {
		t.Errorf("k = 1 allocs/op: uninstrumented %.1f, nil-instrumented %.1f — disabled observability must be free", base, withNil)
	}
}

// TestEvaluatorInstrumented: with a live registry, per-state
// evaluation counts one fill per state, gauges a block size of 1, and
// never promotes on unit capacities.
func TestEvaluatorInstrumented(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c)
	ev, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ev.Instrument(&obs.Obs{Reg: reg})
	ma := UniformAssignment(len(fs), 1)
	const evals = 5
	for i := 0; i < evals; i++ {
		if _, err := eval1(ev, ma); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core.block_fills"]; got != evals {
		t.Errorf("core.block_fills = %d, want %d", got, evals)
	}
	if got := snap.Gauges["core.block_size"]; got != 1 {
		t.Errorf("core.block_size = %d, want 1", got)
	}
	if got := snap.Counters["core.block_promotions"]; got != 0 {
		t.Errorf("core.block_promotions = %d, want 0", got)
	}
}
