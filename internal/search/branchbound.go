// Bound-guided branch-and-bound over the canonical routing space.
//
// The pruned search mode (Options.Pruned) explores partial middle
// assignments instead of scanning every canonical state. A node fixes
// a prefix of the canonical RGS digit string (canon.go) — equivalently
// a *suffix* of the flows in index order, since digit j is ma[|F|-1-j]
// — and covers the contiguous canonical rank block of all completions.
// Each node carries an admissible bound from a splittable relaxation
// of the fixed prefix:
//
//   - lex-max-min: the trunk relaxation of core.PartialEvaluator —
//     free flows charged on aggregate per-ToR trunk capacity instead of
//     per-middle links — water-filled on the core kernel's reused
//     scratch, so a child bound costs one fill, not a fresh setup;
//   - throughput-max-min: the splittable maximum-throughput LP
//     restricted to the prefix's paths, solved by lp.ThroughputBounder
//     on the integer simplex's reused scratch with its dual certificate
//     re-verified (weak duality), capped by the Lemma 3.2 matching
//     bound.
//
// Nodes expand best-bound-first so the incumbent tightens early; a
// branch is pruned when its bound cannot beat the incumbent. Pruning
// preserves the exhaustive scan's exact result — the *earliest-rank*
// canonical optimum — because the tie rule keeps any node whose bound
// equals the incumbent value while its block starts before the
// incumbent's rank, and a leaf replaces an equal-valued incumbent only
// from a smaller rank. A branch is cut only when its bound is strictly
// worse, or equal with every completion ranked after the incumbent;
// neither can contain the earliest-rank optimum, so the B&B incumbent
// is bit-identical to the exhaustive one.
//
// The mode runs serially (Options.Workers is ignored): the frontier is
// a single priority queue and the bound evaluator's scratch is shared.
// Result.States counts every evaluation performed — exact leaf
// evaluations plus relaxation bound evaluations — which is the number
// the ≥5x-fewer-states claims in BENCH_search.json compare against the
// exhaustive canonical state count.
package search

import (
	"container/heap"
	"context"
	"math/big"
	"time"

	"closnet/internal/core"
	"closnet/internal/lp"
	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// bbObjective adapts one routing objective to the branch-and-bound:
// values are rational vectors compared by rational.LexCompare (the
// throughput objective uses length-1 vectors), leafValue maps an exact
// allocation to its value, and bound maps a partial assignment (flows
// [fixedFrom, |F|) fixed per ma) to an admissible value: ≥ the value of
// every completion.
type bbObjective struct {
	leafValue func(a core.Allocation) rational.Vec
	bound     func(ma core.MiddleAssignment, fixedFrom int) (rational.Vec, error)
}

// bbNode is one frontier node: a canonical digit prefix, its running
// maximum label, the first canonical rank of its block, and its bound.
// The root (depth 0) carries a nil bound, ordered ahead of everything.
type bbNode struct {
	depth  int
	digits []int
	max    int
	lo     int
	bound  rational.Vec
}

// bbHeap pops the best bound first, ties broken by the earliest block
// rank. Live nodes cover disjoint rank blocks (a parent is removed
// when its children are pushed), so lo is a total tiebreak and the pop
// order is deterministic.
type bbHeap []*bbNode

func (h bbHeap) Len() int { return len(h) }
func (h bbHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.bound == nil || b.bound == nil {
		return a.bound == nil
	}
	if c := rational.LexCompare(a.bound, b.bound); c != 0 {
		return c > 0
	}
	return a.lo < b.lo
}
func (h bbHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *bbHeap) Push(x any)   { *h = append(*h, x.(*bbNode)) }
func (h *bbHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// bbSpace is the digit-prefix view the branch-and-bound needs from an
// enumeration space: the contiguous rank-block decomposition by fixed
// digit prefixes. The canonical RGS space provides it for fabrics with
// interchangeable choices; every other fabric gets the full counter
// space, whose prefixes are plain base-n blocks.
type bbSpace interface {
	total() int
	// childLimit returns the largest digit value a child of a node with
	// running maximum max may take (RGS growth rule, or n in the full
	// space).
	childLimit(max int) int
	// suffixCount returns the number of completions of a child of a
	// depth-d node whose running maximum is nm — the child's rank-block
	// size (suffix length numFlows-1-d).
	suffixCount(d, nm int) int
}

func (s *canonSpace) childLimit(max int) int {
	limit := max + 1
	if limit > s.n {
		limit = s.n
	}
	return limit
}

func (s *canonSpace) suffixCount(d, nm int) int {
	return s.counts[s.numFlows-1-d][nm-1]
}

// bbFullSpace adapts the full counter space to the prefix view. Digit
// j is ma[numFlows-1-j] (most significant first), so a digit prefix is
// a contiguous rank block of size n^(suffix length), children in
// ascending digit order are in ascending rank order, and bbRun's
// materialization and fixedFrom bookkeeping apply unchanged.
type bbFullSpace struct {
	*fullSpace
	pows []int // pows[r] = n^r; safe: n^numFlows passed the maxStates check
}

func newBBFullSpace(n, numFlows, maxStates int) (*bbFullSpace, error) {
	fs, err := newFullSpace(n, numFlows, maxStates)
	if err != nil {
		return nil, err
	}
	pows := make([]int, numFlows+1)
	pows[0] = 1
	for r := 1; r <= numFlows; r++ {
		pows[r] = pows[r-1] * n
	}
	return &bbFullSpace{fullSpace: fs, pows: pows}, nil
}

func (s *bbFullSpace) childLimit(int) int { return s.n }

func (s *bbFullSpace) suffixCount(d, _ int) int {
	return s.pows[s.numFlows-1-d]
}

// runBranchBound is the pruned counterpart of runEngine: same journal
// envelope (search.start/incumbent/end), same Result semantics except
// that States counts bound plus leaf evaluations.
func runBranchBound(c topology.Fabric, fs core.Collection, opts Options, obj bbObjective) (*Result, error) {
	if len(fs) == 0 {
		return &Result{Assignment: core.MiddleAssignment{}, Allocation: core.Allocation{}, States: 1}, nil
	}
	var (
		space bbSpace
		err   error
	)
	if c.SymmetricChoices() {
		space, err = newCanonSpace(c.Size(), len(fs), opts.maxStates())
	} else {
		space, err = newBBFullSpace(c.Size(), len(fs), opts.maxStates())
	}
	if err != nil {
		return nil, err
	}
	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eo := newEngineObs(opts.Obs)
	eo.spaceTotal.Add(int64(space.total()))
	eo.j.Emit("search.start", obs.F{
		"space": "pruned", "total": space.total(), "workers": 1, "flows": len(fs), "n": c.Size(),
	})
	sp, ctx := obs.StartSpan(ctx, "search.run")
	sp.Attr("space", "pruned").Attr("total", space.total()).Attr("workers", 1)
	start := time.Now()
	res, err := bbRun(ctx, c, fs, space, opts, obj, eo)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	eo.duration.Observe(time.Since(start))
	sp.Attr("ok", err == nil).End()
	if err != nil {
		eo.j.Emit("search.error", obs.F{"error": err.Error()})
		return nil, err
	}
	eo.j.Emit("search.end", obs.F{"states": res.States})
	return res, nil
}

func bbRun(ctx context.Context, c topology.Fabric, fs core.Collection, space bbSpace, opts Options, obj bbObjective, eo engineObs) (*Result, error) {
	nf := len(fs)
	bev, err := core.NewBlockEvaluator(c, fs)
	if err != nil {
		return nil, err
	}
	bev.Instrument(eo.obs)

	var (
		incVal   rational.Vec
		incRank  = -1
		incMA    core.MiddleAssignment
		incAlloc core.Allocation
		states   int
	)
	// mayImprove is the keep rule: a block can still matter when its
	// bound beats the incumbent, or equals it while starting at an
	// earlier rank (an equal-valued completion there would be the
	// earliest-rank optimum the exhaustive scan reports).
	mayImprove := func(v rational.Vec, lo int) bool {
		if incRank < 0 {
			return true
		}
		cmp := rational.LexCompare(v, incVal)
		return cmp > 0 || (cmp == 0 && lo < incRank)
	}

	ma := make(core.MiddleAssignment, nf)
	h := &bbHeap{&bbNode{}}
	done := ctx.Done()
	pops := 0
	// Leaf evaluations are batched through the block evaluator: a node
	// at depth |F|-1 has only leaf children (fixedFrom == 0 holds for
	// every v, never for some), so one expansion yields up to n
	// rank-contiguous fully fixed assignments — the natural block unit.
	var (
		leafBuf []int
		leafLo  []int
	)
	for h.Len() > 0 {
		if done != nil && pops&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		pops++
		node := heap.Pop(h).(*bbNode)
		// The incumbent may have tightened since the node was pushed.
		if node.bound != nil && !mayImprove(node.bound, node.lo) {
			eo.prunes.Inc()
			continue
		}
		d := node.depth
		limit := space.childLimit(node.max)
		childLo := node.lo
		leafBuf, leafLo = leafBuf[:0], leafLo[:0]
		for v := 1; v <= limit; v++ {
			nm := node.max
			if v > nm {
				nm = v
			}
			size := space.suffixCount(d, nm)
			lo := childLo
			childLo += size
			// Materialize the child's fixed suffix: digit j is
			// ma[nf-1-j]; positions below fixedFrom stay free (bounds
			// never read them).
			fixedFrom := nf - (d + 1)
			for j := 0; j < d; j++ {
				ma[nf-1-j] = node.digits[j]
			}
			ma[fixedFrom] = v
			if fixedFrom == 0 {
				// Leaf: one fully fixed assignment, deferred into the
				// node's block for one exact EvalBlock below.
				leafBuf = append(leafBuf, ma...)
				leafLo = append(leafLo, lo)
				continue
			}
			bv, err := obj.bound(ma, fixedFrom)
			if err != nil {
				return nil, err
			}
			states++
			eo.states.Inc()
			eo.boundEvals.Inc()
			if !mayImprove(bv, lo) {
				eo.prunes.Inc()
				continue
			}
			digits := make([]int, d+1)
			copy(digits, node.digits)
			digits[d] = v
			heap.Push(h, &bbNode{depth: d + 1, digits: digits, max: nm, lo: lo, bound: bv})
		}
		if len(leafLo) > 0 {
			res, err := bev.EvalBlock(leafBuf, len(leafLo))
			if err != nil {
				return nil, err
			}
			// Leaves are processed in the same ascending-rank order the
			// per-state loop evaluated them in, under identical
			// comparison and tie rules, so the incumbent sequence is
			// unchanged.
			for i, lo := range leafLo {
				a := res.Alloc(i)
				states++
				eo.states.Inc()
				val := obj.leafValue(a)
				cmp := 1
				if incRank >= 0 {
					cmp = rational.LexCompare(val, incVal)
				}
				if cmp > 0 || (cmp == 0 && lo < incRank) {
					incVal, incRank = val, lo
					incMA = core.MiddleAssignment(leafBuf[i*nf : (i+1)*nf]).Copy()
					incAlloc = a
					eo.improvements.Inc()
					eo.j.Emit("search.incumbent", obs.F{"shard": 0, "rank": lo})
				}
			}
		}
	}
	return &Result{Assignment: incMA, Allocation: incAlloc, States: states}, nil
}

// lexBranchBound runs the pruned lex-max-min search: trunk-relaxation
// bounds compared as sorted vectors.
func lexBranchBound(c topology.Fabric, fs core.Collection, opts Options) (*Result, error) {
	pe, err := core.NewPartialEvaluator(c, fs)
	if err != nil {
		return nil, err
	}
	obj := bbObjective{
		leafValue: func(a core.Allocation) rational.Vec { return a.SortedCopy() },
		bound: func(ma core.MiddleAssignment, fixedFrom int) (rational.Vec, error) {
			b, err := pe.Bound(ma, fixedFrom)
			if err != nil {
				return nil, err
			}
			return b.SortedCopy(), nil
		},
	}
	return runBranchBound(c, fs, opts, obj)
}

// throughputBranchBound runs the pruned throughput-max-min search:
// certified splittable-LP bounds on the prefix paths, capped by the
// Lemma 3.2 matching bound, compared as length-1 vectors.
func throughputBranchBound(c topology.Fabric, fs core.Collection, opts Options) (*Result, error) {
	// ubRat is nil when the matching ceiling's unit-endpoint premise
	// fails; the LP bound alone is always admissible.
	ubRat, err := matchingBound(c, fs)
	if err != nil {
		return nil, err
	}
	tb := lp.NewThroughputBounder(c, fs)
	obj := bbObjective{
		leafValue: func(a core.Allocation) rational.Vec {
			return rational.Vec{core.Throughput(a)}
		},
		bound: func(ma core.MiddleAssignment, fixedFrom int) (rational.Vec, error) {
			bound, err := tb.Bound(ma, fixedFrom)
			if err != nil {
				return nil, err
			}
			if ubRat != nil && bound.Cmp(ubRat) > 0 {
				bound = new(big.Rat).Set(ubRat)
			}
			return rational.Vec{bound}, nil
		},
	}
	return runBranchBound(c, fs, opts, obj)
}
