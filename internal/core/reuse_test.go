package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"closnet/internal/obs"
	"closnet/internal/topology"
)

// reuseFabrics are the fabrics of the evaluate workloads: C_4, C_5,
// fat-tree k=4, Benes 8 and a 2:1 oversubscribed Clos.
func reuseFabrics(t testing.TB) []topology.Fabric {
	t.Helper()
	c4, err := topology.NewClos(4)
	if err != nil {
		t.Fatal(err)
	}
	c5, err := topology.NewClos(5)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := topology.NewBenes(8)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := topology.NewOversubscribedClos(4, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []topology.Fabric{c4, c5, ft, bn, ov}
}

// randomFlows draws nf unit-demand flows between random servers of c.
func randomFlows(rng *rand.Rand, c topology.Fabric, nf int) Collection {
	fs := Collection{}
	for len(fs) < nf {
		src := c.Source(1+rng.Intn(c.NumToRs()), 1+rng.Intn(c.ServersPerToR()))
		dst := c.Dest(1+rng.Intn(c.NumToRs()), 1+rng.Intn(c.ServersPerToR()))
		fs = fs.Add(src, dst, 1)
	}
	return fs
}

// randomBlock draws k random assignments of nf flows over n choices,
// packed state-major.
func randomBlock(rng *rand.Rand, n, nf, k int) []int {
	mas := make([]int, k*nf)
	for i := range mas {
		mas[i] = 1 + rng.Intn(n)
	}
	return mas
}

// sameBlock compares two evaluators' results on one block state by
// state: the same promotion flags and the same allocations.
func sameBlock(t *testing.T, label string, got, want *BlockEvaluator, mas []int, k int) {
	t.Helper()
	rg, err := got.EvalBlock(mas, k)
	if err != nil {
		t.Fatalf("%s: reused: %v", label, err)
	}
	rw, err := want.EvalBlock(mas, k)
	if err != nil {
		t.Fatalf("%s: fresh: %v", label, err)
	}
	for s := 0; s < k; s++ {
		if rg.Promoted(s) != rw.Promoted(s) {
			t.Errorf("%s state %d: reused promoted=%v, fresh %v", label, s, rg.Promoted(s), rw.Promoted(s))
		}
		if a, b := rg.Alloc(s), rw.Alloc(s); !a.Equal(b) {
			t.Errorf("%s state %d: reused %v, fresh %v", label, s, a, b)
		}
	}
	if got.Promotions() != want.Promotions() {
		t.Errorf("%s: reused evaluator counts %d promotions, fresh %d", label, got.Promotions(), want.Promotions())
	}
}

// sameBounds compares two partial evaluators' bounds of ma on every
// prefix: the same lane, or the same promoted allocation.
func sameBounds(t *testing.T, label string, got, want *PartialEvaluator, ma MiddleAssignment) {
	t.Helper()
	for ff := 0; ff <= len(ma); ff++ {
		lg, ag, err := got.Bound(ma, ff)
		if err != nil {
			t.Fatalf("%s fixedFrom=%d: reused: %v", label, ff, err)
		}
		lw, aw, err := want.Bound(ma, ff)
		if err != nil {
			t.Fatalf("%s fixedFrom=%d: fresh: %v", label, ff, err)
		}
		if (ag != nil) != (aw != nil) {
			t.Errorf("%s fixedFrom=%d: reused promoted=%v, fresh %v", label, ff, ag != nil, aw != nil)
			continue
		}
		if ag == nil {
			ag, aw = AllocOf(lg), AllocOf(lw)
		}
		if !ag.Equal(aw) {
			t.Errorf("%s fixedFrom=%d: reused %v, fresh %v", label, ff, ag, aw)
		}
	}
}

// TestEvaluatorReuseMatchesFresh alternates construct → use → Release
// of block and partial evaluators on one prepared fabric over random
// flow sets whose size rises and falls, and checks every block and
// every bound against an evaluator built on a fresh fabric, whose pools
// are empty. Reuse is observed by pointer identity: sync.Pool may drop
// a released evaluator, and does so at random under -race, but not
// every time.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{6, 2, 9, 1, 7, 3, 10, 0, 5}
	blockReuses, partialReuses := 0, 0
	for _, c := range reuseFabrics(t) {
		pf := PrepareFabric(c)
		released := map[any]bool{}
		for round := 0; round < 3*len(sizes); round++ {
			fs := randomFlows(rng, c, sizes[round%len(sizes)])
			label := fmt.Sprintf("%s round %d (%d flows)", c.Network().Name(), round, len(fs))
			b, err := NewBlockEvaluator(pf, fs)
			if err != nil {
				t.Fatal(err)
			}
			pe, err := NewPartialEvaluator(pf, fs)
			if err != nil {
				t.Fatal(err)
			}
			if released[b] {
				blockReuses++
			}
			if released[pe] {
				partialReuses++
			}
			fb, err := NewBlockEvaluator(c, fs)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := NewPartialEvaluator(c, fs)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				k := 1 + rng.Intn(5)
				sameBlock(t, label, b, fb, randomBlock(rng, c.Size(), len(fs), k), k)
				sameBounds(t, label, pe, fp, randomBlock(rng, c.Size(), len(fs), 1))
			}
			b.Release()
			pe.Release()
			released[b], released[pe] = true, true
		}
	}
	if blockReuses == 0 || partialReuses == 0 {
		t.Fatalf("no reuse observed (block %d, partial %d): the test compared fresh evaluators only", blockReuses, partialReuses)
	}
}

// reuseAfter builds an evaluator of prevFlows on pf, hands it to
// dirty, releases it and builds one of fs, until the build reuses the
// released evaluator, which it returns. sync.Pool may drop a released
// evaluator, so it retries; the test fails if none comes back.
func reuseAfter[E comparable](t *testing.T, build func(Collection) (E, error), release func(E), prevFlows, fs Collection, dirty func(E)) E {
	t.Helper()
	for try := 0; try < 100; try++ {
		prev, err := build(prevFlows)
		if err != nil {
			t.Fatal(err)
		}
		dirty(prev)
		release(prev)
		e, err := build(fs)
		if err != nil {
			t.Fatal(err)
		}
		if e == prev {
			return e
		}
		release(e)
	}
	t.Fatal("no released evaluator was reused in 100 tries")
	var zero E
	return zero
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on, so a promoted fill, which polls once per round,
// stops between two of its rounds.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestEvaluatorReuseResetsOwnerState: an evaluator's next owner gets
// none of its previous owner's settings — ForceBig, the overflow hook,
// the promotion count, the metric handles — and nothing a promoted or
// cancelled fill left in its kernel.
func TestEvaluatorReuseResetsOwnerState(t *testing.T) {
	c := topology.MustClos(4)
	pf := PrepareFabric(c)
	rng := rand.New(rand.NewSource(11))
	prevFlows, fs := randomFlows(rng, c, 9), randomFlows(rng, c, 6)
	mas := randomBlock(rng, c.Size(), len(fs), 4)
	buildBlock := func(fs Collection) (*BlockEvaluator, error) { return NewBlockEvaluator(pf, fs) }
	releaseBlock := func(b *BlockEvaluator) { b.Release() }
	fresh, err := NewBlockEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	prevMas := randomBlock(rng, c.Size(), len(prevFlows), 4)
	evalPrev := func(b *BlockEvaluator) {
		if _, err := b.EvalBlock(prevMas, 4); err != nil {
			t.Fatal(err)
		}
	}

	b := reuseAfter(t, buildBlock, releaseBlock, prevFlows, fs, func(b *BlockEvaluator) {
		b.ForceBig(true)
		evalPrev(b)
	})
	sameBlock(t, "after ForceBig", b, fresh, mas, 4)
	b.Release()

	b = reuseAfter(t, buildBlock, releaseBlock, prevFlows, fs, func(b *BlockEvaluator) {
		b.testOverflow = func(s int) bool { return s != 2 }
		evalPrev(b)
		if b.Promotions() == 0 {
			t.Fatal("the overflow hook promoted nothing")
		}
	})
	if b.Promotions() != 0 {
		t.Errorf("reused evaluator starts at %d promotions", b.Promotions())
	}
	sameBlock(t, "after the overflow hook", b, fresh, mas, 4)
	b.Release()

	// Two flows share a source server and freeze at 1/2 in the first
	// round; the third freezes at 1 in the second, which the context
	// cancels.
	cancelFlows := Collection{}.
		Add(c.Source(1, 1), c.Dest(2, 1), 1).
		Add(c.Source(1, 1), c.Dest(3, 1), 1).
		Add(c.Source(2, 1), c.Dest(4, 1), 1)
	b = reuseAfter(t, buildBlock, releaseBlock, cancelFlows, fs, func(b *BlockEvaluator) {
		b.ForceBig(true)
		_, err := b.EvalBlockCtx(&cancelAfter{context.Background(), 1}, []int{1, 2, 3}, 1)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled promoted fill returned %v", err)
		}
		if b.k.left != 1 {
			t.Fatalf("the cancelled fill left %d flows unfrozen, want 1: it did not stop mid-fill", b.k.left)
		}
	})
	sameBlock(t, "after a cancelled promoted fill", b, fresh, mas, 4)
	b.Release()

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	b = reuseAfter(t, buildBlock, releaseBlock, prevFlows, fs, func(b *BlockEvaluator) {
		b.Instrument(&obs.Obs{Reg: regA})
		evalPrev(b)
	})
	fillsA := regA.Snapshot().Counters["core.block_fills"]
	sameBlock(t, "uninstrumented owner", b, fresh, mas, 4)
	if got := regA.Snapshot().Counters["core.block_fills"]; got != fillsA {
		t.Errorf("an uninstrumented owner counted %d fills into its previous owner's registry", got-fillsA)
	}
	b.Instrument(&obs.Obs{Reg: regB})
	sameBlock(t, "instrumented owner", b, fresh, mas, 4)
	if nA, nB := regA.Snapshot().Counters["core.block_fills"], regB.Snapshot().Counters["core.block_fills"]; nA != fillsA || nB != 1 {
		t.Errorf("the new owner's fill counted %d into the old registry and %d into its own, want 0 and 1", nA-fillsA, nB)
	}
	b.Release()

	freshPE, err := NewPartialEvaluator(c, fs)
	if err != nil {
		t.Fatal(err)
	}
	pe := reuseAfter(t, func(fs Collection) (*PartialEvaluator, error) { return NewPartialEvaluator(pf, fs) },
		func(e *PartialEvaluator) { e.Release() }, prevFlows, fs, func(e *PartialEvaluator) {
			e.ForceBig(true)
			if _, _, err := e.Bound(MiddleAssignment(prevMas[:len(prevFlows)]), 3); err != nil {
				t.Fatal(err)
			}
		})
	sameBounds(t, "after ForceBig", pe, freshPE, MiddleAssignment(mas[:len(fs)]))
	pe.Release()
}

// TestReleasedEvaluatorsCapped: a fabric keeps at most GOMAXPROCS
// released evaluators of a kind between takes, and the surplus goes to
// the GC.
func TestReleasedEvaluatorsCapped(t *testing.T) {
	pf := PrepareFabric(topology.MustClos(2))
	limit := runtime.GOMAXPROCS(0)
	released := map[*BlockEvaluator]bool{}
	for i := 0; i < limit+3; i++ {
		b, err := NewBlockEvaluator(pf, nil)
		if err != nil {
			t.Fatal(err)
		}
		released[b] = true
	}
	for b := range released {
		b.Release()
	}
	back := 0
	for i := 0; i < limit+3; i++ {
		b, err := NewBlockEvaluator(pf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if released[b] {
			back++
		}
	}
	if back > limit {
		t.Errorf("%d of %d released evaluators came back, want at most GOMAXPROCS = %d", back, limit+3, limit)
	}
}
