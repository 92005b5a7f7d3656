package core

import (
	"math/rand"
	"strings"
	"testing"

	"closnet/internal/obs"
	"closnet/internal/topology"
)

// blockOf packs the assignments of ranks [lo, lo+k) of the full base-n
// space into a state-major block.
func blockOf(n, nf, lo, k int) []int {
	mas := make([]int, 0, k*nf)
	for s := 0; s < k; s++ {
		r := lo + s
		for fi := 0; fi < nf; fi++ {
			mas = append(mas, 1+r%n)
			r /= n
		}
	}
	return mas
}

// TestBlockEvaluatorMatchesEval: EvalBlock must return, state by state,
// exactly what the reference returns — same rationals — over the
// whole routing space of a small instance, for every block size
// including ragged final blocks and k = 1.
func TestBlockEvaluatorMatchesEval(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c) // 4 flows: 16 assignments
	be, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	nf, n, total := len(fs), c.Size(), 16
	for _, k := range []int{1, 3, 5, 16} {
		for lo := 0; lo < total; lo += k {
			kk := k
			if lo+kk > total {
				kk = total - lo
			}
			mas := blockOf(n, nf, lo, kk)
			res, err := be.EvalBlock(mas, kk)
			if err != nil {
				t.Fatalf("k=%d lo=%d: %v", k, lo, err)
			}
			if res.Len() != kk {
				t.Fatalf("k=%d lo=%d: Len = %d", k, lo, res.Len())
			}
			for s := 0; s < kk; s++ {
				want, err := referenceClos(c, fs, mas[s*nf:(s+1)*nf])
				if err != nil {
					t.Fatal(err)
				}
				if res.Promoted(s) {
					t.Errorf("k=%d rank=%d: unit-capacity state promoted", k, lo+s)
				}
				if got := res.Alloc(s); !got.Equal(want) {
					t.Errorf("k=%d rank=%d: block %v, oracle %v", k, lo+s, got, want)
				}
			}
		}
	}
	if be.Promotions() != 0 {
		t.Errorf("unit-capacity instance promoted %d times", be.Promotions())
	}
}

// TestBlockEvaluatorForceBig: a pinned-big block matches the oracle
// path on every element and reports every state promoted.
func TestBlockEvaluatorForceBig(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c)
	be, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	be.ForceBig(true)
	nf, n := len(fs), c.Size()
	mas := blockOf(n, nf, 0, 16)
	res, err := be.EvalBlock(mas, 16)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		if !res.Promoted(s) {
			t.Errorf("state %d: ForceBig block not promoted", s)
		}
		want, err := referenceClos(c, fs, mas[s*nf:(s+1)*nf])
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Alloc(s); !got.Equal(want) {
			t.Errorf("state %d: ForceBig block %v, oracle %v", s, got, want)
		}
	}
	if be.Promotions() != 0 {
		t.Errorf("ForceBig counted %d overflow promotions", be.Promotions())
	}
}

// TestBlockEvaluatorMixedPromotion forces a subset of a block through
// the big.Rat path mid-fill (the test hook fires after registration,
// with the active lane populated) and checks that promoted and fast
// states alike match the oracle — a promotion must not poison
// the shared lanes for the states after it — and that a subsequent
// clean block on the same evaluator is still exact.
func TestBlockEvaluatorMixedPromotion(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c)
	be, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	be.testOverflow = func(s int) bool { return s%3 == 1 }
	nf, n := len(fs), c.Size()
	mas := blockOf(n, nf, 0, 16)
	res, err := be.EvalBlock(mas, 16)
	if err != nil {
		t.Fatal(err)
	}
	promoted := 0
	for s := 0; s < 16; s++ {
		if res.Promoted(s) != (s%3 == 1) {
			t.Errorf("state %d: Promoted = %v", s, res.Promoted(s))
		}
		if res.Promoted(s) {
			promoted++
		}
		want, err := referenceClos(c, fs, mas[s*nf:(s+1)*nf])
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Alloc(s); !got.Equal(want) {
			t.Errorf("state %d (promoted=%v): block %v, oracle %v", s, res.Promoted(s), got, want)
		}
	}
	if be.Promotions() != promoted {
		t.Errorf("Promotions() = %d, want %d", be.Promotions(), promoted)
	}

	// The hook removed, the same evaluator must run fully fast again.
	be.testOverflow = nil
	res, err = be.EvalBlock(mas, 16)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		if res.Promoted(s) {
			t.Errorf("clean follow-up block: state %d promoted", s)
		}
		want, err := referenceClos(c, fs, mas[s*nf:(s+1)*nf])
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Alloc(s); !got.Equal(want) {
			t.Errorf("clean follow-up block: state %d: %v != %v", s, got, want)
		}
	}
}

// TestBlockEvaluatorZeroAllocFastPath: after warm-up, the Rat64 block
// fast path allocates nothing — zero per block, hence zero per state —
// whether uninstrumented or carrying a live registry, and a mid-block
// promotion does not degrade the following clean blocks back into an
// allocating regime.
func TestBlockEvaluatorZeroAllocFastPath(t *testing.T) {
	c := topology.MustClos(4)
	fs := evaluatorCollection(c)
	nf, n := len(fs), c.Size()
	rng := rand.New(rand.NewSource(11))
	const k = 32
	mas := make([]int, k*nf)
	for i := range mas {
		mas[i] = 1 + rng.Intn(n)
	}
	build := func(instrument bool) *BlockEvaluator {
		be, err := NewBlockEvaluator(c, fs)
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			be.Instrument(&obs.Obs{Reg: obs.NewRegistry()})
		}
		// Warm-up sizes the output lanes.
		if _, err := be.EvalBlock(mas, k); err != nil {
			t.Fatal(err)
		}
		return be
	}
	measure := func(be *BlockEvaluator) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := be.EvalBlock(mas, k); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := measure(build(false)); got != 0 {
		t.Errorf("fast-path block allocates %.1f/op, want 0", got)
	}
	if got := measure(build(true)); got != 0 {
		t.Errorf("instrumented fast-path block allocates %.1f/op, want 0", got)
	}

	// A promoted block in between must not poison the steady state:
	// once the hook is removed, clean blocks are allocation-free again.
	be := build(false)
	be.testOverflow = func(s int) bool { return s == k/2 }
	if _, err := be.EvalBlock(mas, k); err != nil {
		t.Fatal(err)
	}
	be.testOverflow = nil
	if got := measure(be); got != 0 {
		t.Errorf("post-promotion fast-path block allocates %.1f/op, want 0", got)
	}
}

// TestBlockEvaluatorInstrumented: with a live registry the evaluator
// counts block fills and promotions and gauges the last block size.
func TestBlockEvaluatorInstrumented(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c)
	be, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	be.Instrument(&obs.Obs{Reg: reg})
	nf, n := len(fs), c.Size()
	be.testOverflow = func(s int) bool { return s == 0 }
	if _, err := be.EvalBlock(blockOf(n, nf, 0, 5), 5); err != nil {
		t.Fatal(err)
	}
	be.testOverflow = nil
	if _, err := be.EvalBlock(blockOf(n, nf, 5, 3), 3); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core.block_fills"]; got != 2 {
		t.Errorf("core.block_fills = %d, want 2", got)
	}
	if got := snap.Counters["core.block_promotions"]; got != 1 {
		t.Errorf("core.block_promotions = %d, want 1", got)
	}
	if got := snap.Gauges["core.block_size"]; got != 3 {
		t.Errorf("core.block_size = %d, want 3", got)
	}
}

// TestBlockEvaluatorErrors: malformed blocks are rejected up front.
func TestBlockEvaluatorErrors(t *testing.T) {
	c := topology.MustClos(2)
	fs := evaluatorCollection(c)
	be, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.EvalBlock([]int{1, 1, 1}, 1); err == nil || !strings.Contains(err.Error(), "assignment entries") {
		t.Errorf("short block: err = %v", err)
	}
	if _, err := be.EvalBlock([]int{1, 1, 1, 3}, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range middle: err = %v", err)
	}
	if _, err := be.EvalBlock(nil, -1); err == nil {
		t.Error("negative k accepted")
	}
}
