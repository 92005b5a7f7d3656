// Package search explores the routing space R of a Clos network: the set
// of all middle-switch assignments of a flow collection. It provides
// exact optimizers for the two routing objectives of §2.3 — lex-max-min
// fairness (Definition 2.4) and throughput-max-min fairness
// (Definition 2.5) — by exhaustive enumeration on small instances, plus
// hill-climbing and local-optimality certificates for instances whose
// routing space is too large to enumerate.
//
// The exhaustive optimizers enumerate in parallel by default, sharding
// the ranked assignment space over worker goroutines (see engine.go);
// the reduction is deterministic, so the result is bit-identical for
// every worker count.
//
// Finding a lex-max-min fair allocation is NP-complete in general
// (Kleinberg–Tardos–Rabani [22]), so the exact optimizers guard against
// state-space explosion with a configurable cap.
package search

import (
	"context"
	"errors"
	"math/big"

	"closnet/internal/core"
	"closnet/internal/lp"
	"closnet/internal/matching"
	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// ErrTooManyStates is returned when an exhaustive search would exceed the
// configured state cap.
var ErrTooManyStates = errors.New("search: routing space exceeds state cap")

// DefaultMaxStates bounds exhaustive enumeration: n^|F| assignments.
const DefaultMaxStates = 1 << 21

// Options tunes the exhaustive optimizers.
type Options struct {
	// MaxStates caps the number of enumerated assignments
	// (0 = DefaultMaxStates). The cap applies to the space actually
	// enumerated — the canonical space by default — so instances whose
	// full space n^|F| overflows the cap remain searchable as long as
	// their canonical orbit count fits.
	MaxStates int
	// FullSpace disables the symmetry-canonical enumeration (space.go)
	// and scans all n^|F| assignments. Both spaces produce bit-identical
	// results; the equivalence tests cross-check canonicalization
	// against the full space.
	FullSpace bool
	// Pruned enables the bound-guided branch-and-bound over the
	// canonical space (branchbound.go): partial assignments are bounded
	// by a splittable relaxation and branches that cannot beat the
	// incumbent are never enumerated. The incumbent is bit-identical to
	// the exhaustive scan's for every instance; Result.States counts
	// bound plus leaf evaluations instead of enumerated states. The
	// mode is serial (Workers is ignored), supports the lex and
	// throughput objectives, and is mutually exclusive with FullSpace
	// (the canonical rank blocks are what the bound prunes).
	Pruned bool
	// Workers is the number of enumeration worker goroutines: 0 runs one
	// worker per available core, and k ≥ 1 uses exactly k workers. Every
	// setting returns bit-identical results (see engine.go).
	Workers int
	// Obs attaches the runtime observability layer to the search: state
	// and incumbent counters in the metrics registry, shard/merge/stop
	// events in the journal (see internal/obs). nil disables all
	// instrumentation; the hot path then pays a single nil check per
	// state and allocates nothing.
	Obs *obs.Obs
	// Ctx, when non-nil, bounds the search: the enumeration loop polls
	// it periodically (once per block of states per worker), a leaf's
	// promoted *big.Rat fill once per round, and a cancelled run
	// returns ctx.Err() with the partial incumbent discarded — no
	// Result escapes a cancelled search, for any worker count. nil
	// means context.Background() (never cancelled).
	Ctx context.Context
}

func (o Options) maxStates() int {
	if o.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return o.MaxStates
}

func (o Options) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// Result is an optimizer outcome: the best assignment found, its max-min
// fair allocation, and the number of assignments examined. Under an
// early exit, States counts the deterministic enumeration prefix up to
// and including the stopping state — the same value for every worker
// count.
type Result struct {
	Assignment core.MiddleAssignment
	Allocation core.Allocation
	States     int
}

// LexMaxMin finds a lex-max-min fair allocation (Definition 2.4): the
// max-min fair allocation whose sorted vector is lexicographically
// maximum over all routings. By default it enumerates exhaustively;
// with Options.Pruned it runs the bound-guided branch-and-bound, which
// returns the bit-identical incumbent while visiting fewer states.
func LexMaxMin(c topology.Fabric, fs core.Collection, opts Options) (*Result, error) {
	c = core.PrepareFabric(c)
	obj, err := lexObjective(c, fs, opts)
	if err != nil {
		return nil, err
	}
	defer obj.done()
	return run(c, fs, opts, obj, scanBlock)
}

// lexObjective orders allocations by their sorted vectors: the fast
// form is the state's lane, copied and sorted without allocating, and
// the exact form a sorted view aliasing the allocation's elements.
// Pruned mode bounds a prefix by the trunk relaxation of
// core.PartialEvaluator, whose lane or promoted allocation takes the
// same two forms.
func lexObjective(c topology.Fabric, fs core.Collection, opts Options) (*objective, error) {
	if err := checkPruned(opts); err != nil {
		return nil, err
	}
	obj := &objective{
		fast: func(dst, rates []rational.Rat64) ([]rational.Rat64, bool) {
			dst = append(dst, rates...)
			rational.Sort64(dst)
			return dst, true
		},
		exact: sortedRats,
	}
	if opts.Pruned {
		pe, err := core.NewPartialEvaluator(c, fs)
		if err != nil {
			return nil, err
		}
		obj.bound = func(dst *value, ma core.MiddleAssignment, fixedFrom int) error {
			lane, a, err := pe.Bound(ma, fixedFrom)
			if err == nil {
				obj.valueOf(dst, lane, a)
			}
			return err
		}
		obj.release = pe.Release
	}
	return obj, nil
}

// ThroughputMaxMin finds a throughput-max-min fair allocation
// (Definition 2.5): the max-min fair allocation whose throughput is
// maximum over all routings. The exhaustive scan stops early once the
// throughput reaches the maximum matching size of G^MS, which
// upper-bounds T^T-MmF via T^T-MmF ≤ T^T-MT = T^MT (Lemma 5.2 and
// Lemma 3.2); the abort propagates to every enumeration worker, so the
// states after the stopping one are never evaluated.
func ThroughputMaxMin(c topology.Fabric, fs core.Collection, opts Options) (*Result, error) {
	c = core.PrepareFabric(c)
	obj, err := throughputObjective(c, fs, opts)
	if err != nil {
		return nil, err
	}
	defer obj.done()
	return run(c, fs, opts, obj, scanBlock)
}

// throughputObjective orders allocations by total throughput: the fast
// form is the Rat64 sum of the lane (an overflowing sum defers to the
// exact value), with the Lemma 3.2 matching bound as its ceiling.
// Pruned mode bounds a prefix by the certified splittable LP over its
// paths, capped by the same ceiling.
func throughputObjective(c topology.Fabric, fs core.Collection, opts Options) (*objective, error) {
	if err := checkPruned(opts); err != nil {
		return nil, err
	}
	// ub is nil when the matching ceiling's unit-endpoint premise fails;
	// the LP bound alone is always admissible.
	ub, err := matchingBound(c, fs)
	if err != nil {
		return nil, err
	}
	obj := &objective{
		fast: func(dst, rates []rational.Rat64) ([]rational.Rat64, bool) {
			sum := rational.Zero64()
			for _, r := range rates {
				var ok bool
				if sum, ok = sum.Add(r); !ok {
					return dst, false
				}
			}
			return append(dst, sum), true
		},
		exact: func(a core.Allocation) rational.Vec { return rational.Vec{core.Throughput(a)} },
	}
	if ub != nil {
		obj.ceiling = new(value)
		obj.ceiling.setRat(ub)
	}
	if opts.Pruned {
		tb := lp.NewThroughputBounder(c, fs)
		obj.bound = func(dst *value, ma core.MiddleAssignment, fixedFrom int) error {
			r, x, err := tb.Bound(ma, fixedFrom)
			if err != nil {
				return err
			}
			if x != nil {
				dst.setBig(rational.Vec{x})
			} else {
				dst.lane, dst.big = append(dst.lane[:0], r), nil
			}
			return nil
		}
		obj.release = tb.Release
	}
	return obj, nil
}

// checkPruned rejects the option combination the pruned mode does not
// support: the bound prunes canonical rank blocks.
func checkPruned(opts Options) error {
	if opts.Pruned && opts.FullSpace {
		return errors.New("search: Pruned and FullSpace are mutually exclusive")
	}
	return nil
}

// matchingBound returns the Lemma 3.2 throughput ceiling |F'| when it
// applies, or nil when it does not. The ceiling's proof charges every
// flow against its endpoint server links, so it requires each flow
// endpoint to attach through a single finite link of capacity at most
// one — true for every fabric this library builds, but re-verified here
// so a future fabric with fatter server links cannot inherit an unsound
// early exit or branch-and-bound cap.
func matchingBound(c topology.Fabric, fs core.Collection) (*big.Rat, error) {
	net := c.Network()
	one := rational.One()
	inLinks := make(map[topology.NodeID]int)
	inOK := make(map[topology.NodeID]bool)
	needed := make(map[topology.NodeID]bool)
	for _, f := range fs {
		needed[f.Dst] = true
	}
	links := net.Links()
	for i := range links {
		l := &links[i]
		if needed[l.To] {
			inLinks[l.To]++
			inOK[l.To] = !l.Unbounded && l.Capacity.Cmp(one) <= 0
		}
	}
	for _, f := range fs {
		out := net.OutLinks(f.Src)
		if len(out) != 1 {
			return nil, nil
		}
		l := net.Link(out[0])
		if l.Unbounded || l.Capacity.Cmp(one) > 0 {
			return nil, nil
		}
		if inLinks[f.Dst] != 1 || !inOK[f.Dst] {
			return nil, nil
		}
	}
	ub, err := maxMatchingSize(fs)
	if err != nil {
		return nil, err
	}
	return rational.Int(int64(ub)), nil
}

// maxMatchingSize computes |F'| of G^MS for the collection, the
// throughput ceiling of Lemma 3.2.
func maxMatchingSize(fs core.Collection) (int, error) {
	srcIdx := make(map[topology.NodeID]int)
	dstIdx := make(map[topology.NodeID]int)
	g := matching.Graph{}
	for _, f := range fs {
		if _, ok := srcIdx[f.Src]; !ok {
			srcIdx[f.Src] = len(srcIdx)
		}
		if _, ok := dstIdx[f.Dst]; !ok {
			dstIdx[f.Dst] = len(dstIdx)
		}
		g.Edges = append(g.Edges, matching.Edge{Left: srcIdx[f.Src], Right: dstIdx[f.Dst]})
	}
	g.NumLeft, g.NumRight = len(srcIdx), len(dstIdx)
	m, err := matching.MaxMatching(g)
	if err != nil {
		return 0, err
	}
	return len(m), nil
}

// Neighbor is a single-flow deviation that improves the current routing.
type Neighbor struct {
	Flow       int
	Middle     int
	Allocation core.Allocation
}

// ImprovingNeighbor scans all single-flow reroutes of ma and returns a
// lexicographically improving one, or nil if ma is locally lex-optimal.
// This mirrors the deviation analysis of the paper's Step 2 arguments
// (Lemma 4.6): a posited lex-max-min witness must at minimum admit no
// improving single-flow deviation.
func ImprovingNeighbor(c topology.Fabric, fs core.Collection, ma core.MiddleAssignment) (*Neighbor, error) {
	obj, err := lexObjective(c, fs, Options{})
	if err != nil {
		return nil, err
	}
	nbs, _, err := newNeighbors(c, fs, obj, ma)
	if err != nil {
		return nil, err
	}
	return nbs.improve(ma.Copy())
}

// IsLocalLexOptimal reports whether no single-flow reroute of ma improves
// the sorted max-min fair vector lexicographically.
func IsLocalLexOptimal(c topology.Fabric, fs core.Collection, ma core.MiddleAssignment) (bool, error) {
	nb, err := ImprovingNeighbor(c, fs, ma)
	return err == nil && nb == nil, err
}

// neighbors is the single-flow deviation scan of the local-optimality
// certificate and the hill climbs: every deviation is a one-state block
// on one core.BlockEvaluator, valued like a search leaf and compared
// with the current routing's value.
type neighbors struct {
	bev       *core.BlockEvaluator
	n         int
	obj       *objective
	cur, cand value
}

// newNeighbors prepares the scan of fs in c under obj from the routing
// ma and returns it with ma's allocation.
func newNeighbors(c topology.Fabric, fs core.Collection, obj *objective, ma core.MiddleAssignment) (*neighbors, core.Allocation, error) {
	bev, err := core.NewBlockEvaluator(c, fs)
	if err != nil {
		return nil, nil, err
	}
	res, err := bev.EvalBlock(ma, 1)
	if err != nil {
		return nil, nil, err
	}
	nbs := &neighbors{bev: bev, n: c.Size(), obj: obj}
	rates, a := stateOf(res, 0)
	obj.valueOf(&nbs.cur, rates, a)
	return nbs, res.Alloc(0), nil
}

// improve returns the first single-flow deviation of ma, in (flow,
// middle) order, whose value strictly exceeds the current one, and
// makes its value current; it returns nil when none does. ma is
// restored on return.
func (nbs *neighbors) improve(ma core.MiddleAssignment) (*Neighbor, error) {
	for fi, orig := range ma {
		for m := 1; m <= nbs.n; m++ {
			if m == orig {
				continue
			}
			ma[fi] = m
			res, err := nbs.bev.EvalBlock(ma, 1)
			ma[fi] = orig
			if err != nil {
				return nil, err
			}
			rates, a := stateOf(res, 0)
			nbs.obj.valueOf(&nbs.cand, rates, a)
			if nbs.cand.cmp(&nbs.cur) <= 0 {
				continue
			}
			nbs.cur, nbs.cand = nbs.cand, nbs.cur
			return &Neighbor{Flow: fi, Middle: m, Allocation: res.Alloc(0)}, nil
		}
	}
	return nil, nil
}
