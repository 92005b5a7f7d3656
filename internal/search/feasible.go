package search

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"

	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// ErrSearchBudget is returned when the feasibility backtracker exceeds
// its node budget before reaching a certified answer.
var ErrSearchBudget = errors.New("search: feasibility search exceeded node budget")

// DefaultMaxNodes bounds the feasibility backtracker's search tree.
const DefaultMaxNodes = 5_000_000

// FeasibleRouting decides whether the flows, offered with the given fixed
// demands (typically their macro-switch rates, as in §4.1), admit a
// routing of C_n in which every link capacity is satisfied. It returns a
// witness assignment if one exists. The answer is exact: when it reports
// infeasibility the whole (pruned) space was refuted.
//
// The search assigns flows in descending demand order with exact
// remaining-capacity pruning on fabric links, mirroring the available-
// capacity argument of Example 4.1. Server links are checked up front:
// their loads do not depend on the routing.
//
// workers follows the Options.Workers policy: 0 shards the first placed
// flow's middle-switch branches over one worker per core, 1 forces the
// serial backtracker. When the search completes within the node budget
// the answer — including the witness — is identical for every worker
// count: the witness returned is always the depth-first-earliest one of
// the lowest feasible branch, and a branch's witness is only reported
// once every lower branch has been fully refuted. The node budget is
// shared across workers; because workers explore speculatively, a
// parallel run may in rare cases exhaust a budget a serial run would
// not, but never the converse.
//
// ctx bounds the search: the backtracker polls it periodically (every
// ctxNodeCheckMask+1 nodes) and a cancelled run returns ctx.Err() with
// any partial witness discarded.
func FeasibleRouting(ctx context.Context, c *topology.Clos, fs core.Collection, demands rational.Vec, maxNodes, workers int) (core.MiddleAssignment, bool, error) {
	p, err := newFeasibleProblem(ctx, c, fs, demands, maxNodes)
	if err != nil {
		return nil, false, err
	}
	if p == nil {
		return nil, false, nil // server links overloaded: no routing helps
	}
	w := Options{Workers: workers}.workerCount()
	if w > p.n {
		w = p.n
	}
	if w <= 1 || p.nf == 0 {
		var witness core.MiddleAssignment
		found := false
		err := p.search(func(ma core.MiddleAssignment) bool {
			witness = ma.Copy()
			found = true
			return false // stop at first witness
		})
		if err != nil {
			return nil, false, err
		}
		if err := ctx.Err(); err != nil {
			// Mirror the parallel path: a cancelled query never reports
			// an answer, even when the walk finished first.
			return nil, false, err
		}
		return witness, found, nil
	}
	return p.parallelWitness(w)
}

// feasibleProblem is the routing-independent part of a feasibility
// query, shared by the serial backtracker and every parallel branch
// worker: flow endpoints resolved to switch indices, the placement
// order, the interchangeability runs, and the shared node budget.
type feasibleProblem struct {
	n, tors, nf int
	demands     rational.Vec
	inIdx       []int
	outIdx      []int
	order       []int
	sameGroup   []bool

	ctx    context.Context
	done   <-chan struct{}
	budget int64
	nodes  atomic.Int64
}

// ctxNodeCheckMask sets the backtracker's cancellation polling cadence:
// the shared node counter triggers a poll every ctxNodeCheckMask+1
// nodes across all workers.
const ctxNodeCheckMask = 255

// checkCtx polls the query's context at the given node count and
// returns ctx.Err() when the deadline passed or the caller cancelled.
func (p *feasibleProblem) checkCtx(nodes int64) error {
	if p.done == nil || nodes&ctxNodeCheckMask != 0 {
		return nil
	}
	select {
	case <-p.done:
		return p.ctx.Err()
	default:
		return nil
	}
}

// newFeasibleProblem validates the query and precomputes the placement
// order. It returns (nil, nil) when a server link is overloaded — the
// demands are infeasible regardless of routing.
func newFeasibleProblem(ctx context.Context, c *topology.Clos, fs core.Collection, demands rational.Vec, maxNodes int) (*feasibleProblem, error) {
	if len(demands) != len(fs) {
		return nil, fmt.Errorf("search: %d demands for %d flows", len(demands), len(fs))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	p := &feasibleProblem{
		n:       c.Size(),
		tors:    c.NumToRs(),
		nf:      len(fs),
		demands: demands,
		ctx:     ctx,
		done:    ctx.Done(),
		budget:  int64(maxNodes),
	}

	// Locate each flow's input and output switch.
	p.inIdx = make([]int, p.nf)
	p.outIdx = make([]int, p.nf)
	for fi, f := range fs {
		i, ok := c.InputOf(f.Src)
		if !ok {
			return nil, fmt.Errorf("search: flow %d source is not a server", fi)
		}
		o, ok := c.OutputOf(f.Dst)
		if !ok {
			return nil, fmt.Errorf("search: flow %d destination is not a server", fi)
		}
		p.inIdx[fi], p.outIdx[fi] = i, o
		if demands[fi].Sign() < 0 {
			return nil, fmt.Errorf("search: flow %d has negative demand", fi)
		}
	}

	// Server links are independent of routing: check them first.
	one := rational.One()
	bySource := make(map[topology.NodeID]*big.Rat)
	byDest := make(map[topology.NodeID]*big.Rat)
	for fi, f := range fs {
		addTo(bySource, f.Src, demands[fi])
		addTo(byDest, f.Dst, demands[fi])
	}
	for _, total := range bySource {
		if total.Cmp(one) > 0 {
			return nil, nil
		}
	}
	for _, total := range byDest {
		if total.Cmp(one) > 0 {
			return nil, nil
		}
	}

	// Order flows by descending demand so large flows are placed first —
	// they prune hardest — and group fabric-interchangeable flows (same
	// input switch, output switch and demand) consecutively so the
	// canonical non-decreasing-middle constraint applies within runs.
	p.order = make([]int, p.nf)
	for i := range p.order {
		p.order[i] = i
	}
	groupLess := func(a, b int) bool {
		if c := demands[a].Cmp(demands[b]); c != 0 {
			return c > 0
		}
		if p.inIdx[a] != p.inIdx[b] {
			return p.inIdx[a] < p.inIdx[b]
		}
		return p.outIdx[a] < p.outIdx[b]
	}
	sort.SliceStable(p.order, func(a, b int) bool { return groupLess(p.order[a], p.order[b]) })

	// sameGroup[k] reports that order[k] is fabric-interchangeable with
	// order[k-1]; its middle must then be ≥ the predecessor's.
	p.sameGroup = make([]bool, p.nf)
	for k := 1; k < p.nf; k++ {
		a, b := p.order[k-1], p.order[k]
		p.sameGroup[k] = p.inIdx[a] == p.inIdx[b] && p.outIdx[a] == p.outIdx[b] &&
			demands[a].Cmp(demands[b]) == 0
	}
	return p, nil
}

// search runs the serial backtracker over every first-flow branch.
func (p *feasibleProblem) search(visit func(core.MiddleAssignment) bool) error {
	w := &feasibleWalker{p: p, firstLo: 0, firstHi: p.n, visit: visit}
	return w.run()
}

// feasibleWalker is one depth-first exploration of the placement tree,
// restricted at depth 0 to middles [firstLo, firstHi). Each walker owns
// its capacity grids and assignment buffer; the node budget lives on the
// shared problem.
type feasibleWalker struct {
	p                *feasibleProblem
	firstLo, firstHi int
	visit            func(core.MiddleAssignment) bool
	// cancel, when non-nil, is polled at every node; returning true
	// abandons the walk without error (used when a lower parallel branch
	// has already produced a witness).
	cancel func() bool

	remIn, remOut [][]*big.Rat
	ma            core.MiddleAssignment
	stopped       bool
	cancelled     bool
}

func (w *feasibleWalker) run() error {
	p := w.p
	// remIn[i-1][m-1] is the remaining capacity of I_i -> M_m; remOut
	// likewise for M_m -> O_i.
	w.remIn = capacityGrid(p.tors, p.n)
	w.remOut = capacityGrid(p.tors, p.n)
	w.ma = make(core.MiddleAssignment, p.nf)
	return w.place(0)
}

func (w *feasibleWalker) place(k int) error {
	if w.stopped || w.cancelled {
		return nil
	}
	if w.cancel != nil && w.cancel() {
		w.cancelled = true
		return nil
	}
	p := w.p
	if k == p.nf {
		if !w.visit(w.ma) {
			w.stopped = true
		}
		return nil
	}
	fi := p.order[k]
	d := p.demands[fi]
	in := w.remIn[p.inIdx[fi]-1]
	out := w.remOut[p.outIdx[fi]-1]
	mLo, mHi := 0, p.n
	if k == 0 {
		mLo, mHi = w.firstLo, w.firstHi
	} else if p.sameGroup[k] {
		mLo = w.ma[p.order[k-1]] - 1
	}
	for m := mLo; m < mHi; m++ {
		if in[m].Cmp(d) < 0 || out[m].Cmp(d) < 0 {
			continue
		}
		nodes := p.nodes.Add(1)
		if nodes > p.budget {
			return ErrSearchBudget
		}
		if err := p.checkCtx(nodes); err != nil {
			return err
		}
		in[m].Sub(in[m], d)
		out[m].Sub(out[m], d)
		w.ma[fi] = m + 1
		err := w.place(k + 1)
		in[m].Add(in[m], d)
		out[m].Add(out[m], d)
		if err != nil {
			return err
		}
		if w.stopped || w.cancelled {
			return nil
		}
	}
	return nil
}

// parallelWitness shards the first placed flow's middle branches over
// workers and returns the deterministic first witness: the depth-first
// witness of the lowest feasible branch. A worker abandons a branch as
// soon as a strictly lower branch has published a witness; abandoning
// never hides the answer because a published witness at branch b makes
// every branch > b irrelevant, and branches < b keep running to
// completion.
func (p *feasibleProblem) parallelWitness(workers int) (core.MiddleAssignment, bool, error) {
	var bestBranch atomic.Int64
	bestBranch.Store(int64(p.n))
	witnesses := make([]core.MiddleAssignment, p.n)
	refuted := make([]bool, p.n) // branch fully explored without a witness

	var wg sync.WaitGroup
	chunk, rem := p.n/workers, p.n%workers
	lo := 0
	for i := 0; i < workers; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for b := lo; b < hi; b++ {
				if int64(b) > bestBranch.Load() {
					return // a lower branch already holds a witness
				}
				w := &feasibleWalker{
					p:       p,
					firstLo: b,
					firstHi: b + 1,
					cancel:  func() bool { return int64(b) > bestBranch.Load() },
					visit: func(ma core.MiddleAssignment) bool {
						witnesses[b] = ma.Copy()
						return false
					},
				}
				if err := w.run(); err != nil {
					// Budget exhaustion is reported at merge (a lower
					// branch's witness may make it irrelevant); context
					// cancellation is sticky and checked there too.
					return
				}
				if witnesses[b] != nil {
					// Publish and stop: higher branches cannot win.
					for {
						cur := bestBranch.Load()
						if int64(b) >= cur || bestBranch.CompareAndSwap(cur, int64(b)) {
							break
						}
					}
					return
				}
				if !w.cancelled {
					refuted[b] = true
				}
			}
		}(lo, hi)
		lo = hi
	}
	wg.Wait()

	// A cancelled run discards every partial answer: cancellation is
	// sticky, so checking once after the join covers every worker.
	if err := p.ctx.Err(); err != nil {
		return nil, false, err
	}
	for b := 0; b < p.n; b++ {
		if witnesses[b] != nil {
			return witnesses[b], true, nil
		}
		if !refuted[b] {
			// The branch was neither refuted nor did any lower branch
			// produce a witness: only budget exhaustion remains.
			return nil, false, ErrSearchBudget
		}
	}
	return nil, false, nil
}

func addTo(m map[topology.NodeID]*big.Rat, key topology.NodeID, v *big.Rat) {
	if cur, ok := m[key]; ok {
		cur.Add(cur, v)
		return
	}
	m[key] = rational.Copy(v)
}

func capacityGrid(rows, cols int) [][]*big.Rat {
	g := make([][]*big.Rat, rows)
	for i := range g {
		g[i] = make([]*big.Rat, cols)
		for j := range g[i] {
			g[i][j] = rational.One()
		}
	}
	return g
}
