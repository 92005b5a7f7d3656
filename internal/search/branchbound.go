// Bound-guided branch-and-bound over the ranked routing space.
//
// The pruned search mode (Options.Pruned) explores partial middle
// assignments instead of scanning every state. A node fixes a prefix
// of the digit string of space.go (canonical RGS strings, or every
// string on fabrics without interchangeable choices) — equivalently a
// *suffix* of the flows in index order, since digit j is ma[|F|-1-j] —
// and covers the contiguous rank block of all completions.
// Each node carries an admissible bound from a splittable relaxation
// of the fixed prefix, held as a Rat64 lane in the node's own storage
// (a *big.Rat vector only when the bound's fill promoted or the LP fell
// back) and ordered by the same compare as every value of value.go:
//
//   - lex-max-min: the trunk relaxation of core.PartialEvaluator —
//     free flows charged on aggregate per-ToR trunk capacity instead of
//     per-middle links — water-filled on the core kernel's reused
//     scratch, so a child bound costs one fill, not a fresh setup; its
//     rate lane is copied into the node, sorted;
//   - throughput-max-min: the splittable maximum-throughput LP
//     restricted to the prefix's paths, solved by lp.ThroughputBounder
//     on the integer simplex's reused scratch with its dual certificate
//     re-verified (weak duality), capped by the Lemma 3.2 matching
//     bound; the certified value is one Rat64.
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
// Leaves go through the scan's leaf-block evaluator, under the same
// incumbent rule. Result.States counts every evaluation performed —
// exact leaf evaluations plus relaxation bound evaluations — which is
// the states/op of the pruned BenchmarkLexSearch rows in
// BENCH_search.json, and what TestPrunedC5Reduction holds to at least
// 5x below the exhaustive canonical state count.
package search

import (
	"container/heap"
	"context"
	"sync"

	"closnet/internal/core"
	"closnet/internal/topology"
)

// bbNode is one frontier node: a digit prefix, its running maximum
// label, the first rank of its block, and its bound. The root (depth 0)
// has no bound and is ordered ahead of everything. Nodes are recycled
// with their digit and bound storage, within a run and across runs
// (frontier), so the frontier allocates only while it grows past its
// previous peak.
type bbNode struct {
	depth  int
	digits []int
	max    int
	lo     int
	bound  value
}

// bbHeap pops the best bound first, ties broken by the earliest block
// rank. Live nodes cover disjoint rank blocks (a parent is removed
// when its children are pushed), so lo is a total tiebreak and the pop
// order is deterministic.
type bbHeap []*bbNode

func (h bbHeap) Len() int { return len(h) }
func (h bbHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.depth == 0 || b.depth == 0 {
		return a.depth == 0
	}
	if c := a.bound.cmp(&b.bound); c != 0 {
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

// frontier is the branch-and-bound's storage: the heap, the expanded
// and pruned nodes kept for reuse, the children's assignment and the
// leaf block. A run takes one from frontiers and puts it back on every
// exit path, so a warm run allocates no node.
type frontier struct {
	h       bbHeap
	free    []*bbNode
	ma      core.MiddleAssignment
	leafBuf []int
}

var frontiers = sync.Pool{New: func() any { return new(frontier) }}

// node returns a recycled node, or a new one with digit storage for nf
// flows.
func (fr *frontier) node(nf int) *bbNode {
	k := len(fr.free)
	if k == 0 {
		return &bbNode{digits: make([]int, 0, nf)}
	}
	n := fr.free[k-1]
	fr.free = fr.free[:k-1]
	return n
}

// release moves the nodes left on the heap to the free list and puts
// the frontier back in the pool.
func (fr *frontier) release() {
	fr.free = append(fr.free, fr.h...)
	fr.h = fr.h[:0]
	frontiers.Put(fr)
}

// branchBound is the pruned explorer of run. A node fixes a digit
// prefix — flows [|F|-depth, |F|) — and covers the contiguous rank
// block of its completions; its children take the digits the space
// allows after the prefix, in ascending rank order.
func branchBound(ctx context.Context, c topology.Fabric, fs core.Collection, s *space, obj *objective, eo engineObs) (incumbent, int, error) {
	best := incumbent{rank: -1}
	// No blockSpans: a pruned search opens no core.block_fill spans.
	l, err := newLeaves(c, fs, obj, eo, 0, &best)
	if err != nil {
		return best, 0, err
	}
	defer l.bev.Release()
	fr := frontiers.Get().(*frontier)
	defer fr.release()
	nf := len(fs)
	if cap(fr.ma) < nf {
		fr.ma = make(core.MiddleAssignment, nf)
	}
	ma := fr.ma[:nf]
	root := fr.node(nf)
	root.depth, root.max, root.lo, root.digits = 0, 0, 0, root.digits[:0]
	h := &fr.h
	heap.Push(h, root)
	done := ctx.Done()
	states := 0
	for pops := 0; h.Len() > 0; pops++ {
		if done != nil && pops&ctxCheckMask == 0 {
			select {
			case <-done:
				return best, 0, ctx.Err()
			default:
			}
		}
		node := heap.Pop(h).(*bbNode)
		// The incumbent may have tightened since the node was pushed.
		if node.depth > 0 && !best.improves(&node.bound, node.lo) {
			eo.prunes.Inc()
			fr.free = append(fr.free, node)
			continue
		}
		d := node.depth
		// Materialize the children's fixed suffix: digit j is
		// ma[nf-1-j]; positions below fixedFrom stay free (bounds never
		// read them).
		fixedFrom := nf - (d + 1)
		for j := 0; j < d; j++ {
			ma[nf-1-j] = node.digits[j]
		}
		lo := node.lo
		// A node at depth |F|-1 has only leaf children, so one expansion
		// yields up to n rank-contiguous fully fixed assignments — one
		// leaf block for the evaluator.
		leafBuf := fr.leafBuf[:0]
		for v := 1; v <= s.limit(node.max); v++ {
			nm := max(node.max, v)
			childLo := lo
			lo += s.counts[nf-1-d][nm]
			ma[fixedFrom] = v
			if fixedFrom == 0 {
				leafBuf = append(leafBuf, ma...)
				continue
			}
			child := fr.node(nf)
			bv := &child.bound
			if err := obj.bound(bv, ma, fixedFrom); err != nil {
				return best, 0, err
			}
			if obj.testPromote != nil && obj.testPromote(childLo) {
				bv.setBig(bv.rats())
			}
			if obj.ceiling != nil && bv.cmp(obj.ceiling) > 0 {
				bv.set(obj.ceiling)
			}
			states++
			eo.states.Inc()
			eo.boundEvals.Inc()
			if !best.improves(bv, childLo) {
				eo.prunes.Inc()
				fr.free = append(fr.free, child)
				continue
			}
			child.depth, child.max, child.lo = d+1, nm, childLo
			child.digits = append(append(child.digits[:0], node.digits...), v)
			heap.Push(h, child)
		}
		fr.leafBuf = leafBuf
		if k := len(leafBuf) / nf; k > 0 {
			// The leaves are evaluated in ascending rank under the
			// incumbent rule; no ceiling stop: pruned States counts every
			// leaf of an expanded last-level node.
			if _, err := l.eval(ctx, leafBuf, k, node.lo); err != nil {
				return best, 0, err
			}
			states += k
			eo.states.Add(int64(k))
		}
		fr.free = append(fr.free, node)
	}
	return best, states, nil
}
