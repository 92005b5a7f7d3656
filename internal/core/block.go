package core

import (
	"context"
	"fmt"

	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// BlockEvaluator water-fills a block of k middle assignments per call
// on the package's kernel: every candidate path is resolved to its lane
// list once at construction, into one flat buffer, and rates land in a
// k×|F| Rat64 lane, so a block allocates nothing on the fast path. The
// search engine hands it rank-contiguous blocks of canonical
// assignments; the serving layer shares one prepared instance per
// topology hash. A state whose fast fill overflows is re-registered and
// re-run on the kernel's *big.Rat fill, which ForceBig pins; every
// state registers afresh, so a promotion cannot poison the states
// after it. Either way the allocations are exactly those of
// ClosMaxMinFair. A BlockEvaluator is NOT safe for concurrent use.
//
// Its lifetime is construct → use → Release: a released evaluator goes
// back to its prepared fabric, and the next NewBlockEvaluator there
// keeps its kernel and buffers and resolves only the new flows' lanes.
// Releasing is optional; an evaluator that is never released is
// garbage collected like any value.
type BlockEvaluator struct {
	pf   *PreparedFabric
	k    *kernel
	nf   int
	n    int
	cur  [][]int32 // the lane lists of the state being filled
	path LaneTable // entry fi·n+m-1: flow fi's lanes via middle m

	// Per-block outputs: the k×nf rate lane of the fast path and the
	// allocations of promoted states (nil for fast states).
	rates     []rational.Rat64
	bigAllocs []Allocation
	res       BlockResult

	// Per-owner state, reset by the constructor.
	forceBig   bool
	promotions int

	// testOverflow, when non-nil, makes the fast fill of the given block
	// state report overflow — the promotion-protocol tests' hook.
	testOverflow func(state int) bool

	cFills      *obs.Counter
	cPromotions *obs.Counter
	gSize       *obs.Gauge
}

// NewBlockEvaluator prepares repeated block evaluations of fs over c,
// on c's prepared fabric (PrepareFabric), reusing an evaluator released
// on that fabric when there is one. It fails if any flow endpoint is
// not a server of c.
func NewBlockEvaluator(c topology.Fabric, fs Collection) (*BlockEvaluator, error) {
	pf := PrepareFabric(c)
	b, _ := pf.blocks.get().(*BlockEvaluator)
	if b == nil {
		b = &BlockEvaluator{pf: pf, k: pf.caps.newKernel()}
	}
	if err := pf.PathLanes(&b.path, fs); err != nil {
		b.Release()
		return nil, fmt.Errorf("evaluator: %w", err)
	}
	b.nf, b.n, b.cur = len(fs), pf.Size(), resize(b.cur, len(fs))
	b.forceBig, b.promotions, b.testOverflow = false, 0, nil
	b.Instrument(nil)
	return b, nil
}

// Release hands b back to its prepared fabric for a later
// NewBlockEvaluator to reuse. Neither b nor any BlockResult it returned
// may be used after Release, and b may be released only once.
func (b *BlockEvaluator) Release() { b.pf.blocks.put(b) }

// ForceBig pins EvalBlock to the (identical) *big.Rat path when on.
func (b *BlockEvaluator) ForceBig(on bool) { b.forceBig = on }

// Promotions returns the number of states so far whose fast fill
// overflowed and was re-run on *big.Rat (ForceBig states do not count).
func (b *BlockEvaluator) Promotions() int { return b.promotions }

// Instrument attaches the observability layer: core.block_fills counts
// EvalBlock calls, core.block_promotions overflow promotions, and the
// core.block_size gauge the last block's state count. Evaluators sharing
// a registry accumulate into shared metrics; a nil o costs nothing.
func (b *BlockEvaluator) Instrument(o *obs.Obs) {
	reg := o.Registry()
	b.cFills = reg.Counter("core.block_fills")
	b.cPromotions = reg.Counter("core.block_promotions")
	b.gSize = reg.Gauge("core.block_size")
}

// EvalBlock computes the max-min fair allocations of k middle
// assignments packed state-major into mas (state s is mas[s·|F| :
// (s+1)·|F|]; mas is only read). The result aliases the evaluator's
// scratch until the next call; BlockResult.Alloc materializes a state.
func (b *BlockEvaluator) EvalBlock(mas []int, k int) (*BlockResult, error) {
	return b.EvalBlockCtx(context.TODO(), mas, k)
}

// EvalBlockCtx is EvalBlock bounded by ctx: a promoted state's *big.Rat
// fill polls ctx once per round, and a cancelled fill returns ctx.Err()
// and leaves the evaluator ready for its next block. The int64 fast
// path never reads ctx; overflow bounds its run.
func (b *BlockEvaluator) EvalBlockCtx(ctx context.Context, mas []int, k int) (*BlockResult, error) {
	if k < 0 || len(mas) != k*b.nf {
		return nil, fmt.Errorf("block evaluator: %d assignment entries for %d states of %d flows", len(mas), k, b.nf)
	}
	for i, m := range mas {
		if m < 1 || m > b.n {
			return nil, fmt.Errorf("block evaluator: state %d flow %d: middle %d out of range [1, %d]", i/b.nf, i%b.nf, m, b.n)
		}
	}
	b.rates = resize(b.rates, k*b.nf)
	b.bigAllocs = resize(b.bigAllocs, k)
	b.cFills.Inc()
	b.gSize.Set(int64(k))

	overflowed, fast := 0, b.k.fast && !b.forceBig
	for s := 0; s < k; s++ {
		for fi, m := range mas[s*b.nf : (s+1)*b.nf] {
			b.cur[fi] = b.path.List(fi*b.n + m - 1)
		}
		try := fast && (b.testOverflow == nil || !b.testOverflow(s))
		a, err := b.k.solve(ctx, b.cur, b.rates[s*b.nf:(s+1)*b.nf], try)
		if err != nil {
			return nil, err
		}
		if fast && a != nil {
			overflowed++
		}
		b.bigAllocs[s] = a
	}
	if overflowed > 0 {
		b.promotions += overflowed
		b.cPromotions.Add(int64(overflowed))
	}
	b.res = BlockResult{be: b, k: k}
	return &b.res, nil
}

// resize returns s with length n, reallocating only when it must grow,
// so steady-state scratch of one size never reallocates.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// BlockResult is the outcome of one EvalBlock call. It aliases the
// evaluator's scratch: accessors are valid until the next EvalBlock on
// the same evaluator or its Release.
type BlockResult struct {
	be *BlockEvaluator
	k  int
}

// Len returns the number of states in the block.
func (r *BlockResult) Len() int { return r.k }

// Promoted reports whether state s was computed on the big.Rat path.
func (r *BlockResult) Promoted(s int) bool { return r.be.bigAllocs[s] != nil }

// Rates64 returns state s's rate lane in flow order. It is only valid
// when !Promoted(s), must not be mutated, and is overwritten by the
// next EvalBlock, or by the evaluator's next owner after Release. The
// search objectives screen candidates on this lane without
// materializing allocations.
func (r *BlockResult) Rates64(s int) []rational.Rat64 {
	return r.be.rates[s*r.be.nf : (s+1)*r.be.nf]
}

// Alloc materializes state s's allocation as a fresh, retainable
// vector, identical to what ClosMaxMinFair returns for the same state.
func (r *BlockResult) Alloc(s int) Allocation {
	if r.Promoted(s) {
		return r.be.bigAllocs[s]
	}
	return AllocOf(r.Rates64(s))
}
