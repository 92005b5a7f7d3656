package core

import (
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"closnet/internal/topology"
)

// PreparedFabric is a topology.Fabric together with every fabric-only
// fact the evaluators derive from it: the LinkID → lane map of its
// finite links and the kernel's capacity template over those lanes,
// plus — built on first use, so an evaluation pays nothing for it — the
// trunk-relaxation template of the pruned lex search. Its facts are
// immutable and it is safe for concurrent use: evaluators built on one
// share it and copy only kernel scratch. It implements topology.Fabric
// by embedding, so a prepared fabric goes wherever a fabric does.
//
// It also keeps the block and partial evaluators released on it
// (Release), whose kernels are sized by its lanes, so a constructor on
// the same fabric reuses their scratch instead of allocating its own.
type PreparedFabric struct {
	topology.Fabric
	laneOf laneMap
	caps   capTemplate

	relaxOnce sync.Once
	relax     *relaxation
	relaxErr  error

	blocks, partials idlePool
}

// idlePool holds the evaluators of one kind released on a fabric. It is
// a sync.Pool, so the GC bounds what a retained fabric holds, and it
// admits at most GOMAXPROCS of them between takes — as many as can
// compute on the fabric at once. Without the cap, evaluators pile up
// between collections wherever releases and takes fall on different
// fabrics: the engine's evaluator pool evicts a topology on one shape
// to admit one on another, so on evaluate-cold traffic the per-fabric
// surplus wanders like a random walk.
type idlePool struct {
	pool sync.Pool
	// idle counts the evaluators put since a take last found the pool
	// empty, less those taken since. It is loose — the GC may drop
	// items, and a take does not see another processor's private one —
	// but it is reset at every empty take, so its error stays small.
	idle atomic.Int32
}

// get takes a released evaluator, or returns nil.
func (p *idlePool) get() any {
	x := p.pool.Get()
	if x == nil {
		p.idle.Store(0)
	} else {
		p.idle.Add(-1)
	}
	return x
}

// put releases x, or drops it for the GC when the pool is full.
func (p *idlePool) put(x any) {
	if p.idle.Add(1) > int32(runtime.GOMAXPROCS(0)) {
		p.idle.Add(-1)
		return
	}
	p.pool.Put(x)
}

// PrepareFabric returns c prepared for evaluation. An already prepared
// fabric is returned as is: every evaluator constructor calls it, so an
// evaluator built on a shared prepared fabric derives nothing.
func PrepareFabric(c topology.Fabric) *PreparedFabric {
	if pf, ok := c.(*PreparedFabric); ok {
		return pf
	}
	laneOf, caps := finiteLanes(c.Network())
	return &PreparedFabric{Fabric: c, laneOf: laneOf, caps: newCapTemplate(caps)}
}

// laneMap maps a LinkID to its lane, -1 for an unbounded link.
type laneMap []int32

// finiteLanes numbers a network's finite links densely as lanes in
// ascending LinkID order, returning the LinkID → lane map and the lane
// capacities.
func finiteLanes(net *topology.Network) (laneMap, []*big.Rat) {
	laneOf := make(laneMap, net.NumLinks())
	caps := make([]*big.Rat, 0, len(laneOf))
	for id := range laneOf {
		laneOf[id] = -1
		if l := net.Link(topology.LinkID(id)); !l.Unbounded {
			laneOf[id] = int32(len(caps))
			caps = append(caps, l.Capacity)
		}
	}
	return laneOf, caps
}

// Capacities returns every lane's capacity as the numerator capN[j]
// over one shared denominator den, the lcm of the capacity
// denominators; ok is false when a value does not fit in int64. The
// slice is shared and must not be mutated.
func (pf *PreparedFabric) Capacities() (capN []int64, den int64, ok bool) {
	return pf.caps.seedN, pf.caps.den0, pf.caps.fast
}

// appendLanes appends the finite lanes of path p to lanes.
func (m laneMap) appendLanes(lanes []int32, p topology.Path) []int32 {
	for _, l := range p {
		if j := m[l]; j >= 0 {
			lanes = append(lanes, j)
		}
	}
	return lanes
}

// LaneTable is a table of lane lists cut from one flat buffer.
// Resolving into a used table reuses both of its buffers, so a table
// that has held as many lanes allocates nothing.
type LaneTable struct {
	lists [][]int32
	flat  []int32
}

// List returns entry i. It is capped, so appending to it never
// overwrites the next entry, and it must not be mutated.
func (t *LaneTable) List(i int) []int32 { return t.lists[i] }

// begin starts a table of n entries, each appended to flat and then
// closed by end in entry order; cut completes it.
func (t *LaneTable) begin(n int) {
	t.lists = resize(t.lists, n)
	t.flat = t.flat[:0]
}

// end closes entry i at the end of flat. Until cut, lists[i] is the
// prefix of flat that ends there: flat may still move, so only its
// length is kept.
func (t *LaneTable) end(i int) { t.lists[i] = t.flat }

// cut cuts the entries out of flat, which no longer moves.
func (t *LaneTable) cut() {
	start := 0
	for i, l := range t.lists {
		t.lists[i] = t.flat[start:len(l):len(l)]
		start = len(l)
	}
}

// PathLanes resolves the finite lanes of every flow's path via every
// choice into t: entry fi·Size() + m-1 lists flow fi's lanes via
// choice m, in path order. On error t is left incomplete.
func (pf *PreparedFabric) PathLanes(t *LaneTable, fs Collection) error {
	n := pf.Size()
	t.begin(len(fs) * n)
	var path topology.Path
	for fi, f := range fs {
		for m := 1; m <= n; m++ {
			var err error
			if path, err = pf.AppendPath(path[:0], f.Src, f.Dst, m); err != nil {
				return fmt.Errorf("flow %d: %w", fi, err)
			}
			if fi == 0 && m == 1 {
				t.flat = slices.Grow(t.flat, len(path)*len(t.lists))
			}
			t.flat = pf.laneOf.appendLanes(t.flat, path)
			t.end(fi*n + m - 1)
		}
	}
	t.cut()
	return nil
}

// relaxation is the fabric-only part of the trunk relaxation
// (partial.go): the capacity template over the real links, as lanes in
// LinkID order, then the trunk pools, and poolOf[side][l], the index of
// real link l's out-pool (side 0) and in-pool (side 1), or -1.
type relaxation struct {
	caps   capTemplate
	nReal  int
	poolOf [2][]int
}

// relaxation returns the trunk-relaxation template, building it on the
// first call.
func (pf *PreparedFabric) relaxation() (*relaxation, error) {
	pf.relaxOnce.Do(func() { pf.relax, pf.relaxErr = newRelaxation(pf.Network()) })
	return pf.relax, pf.relaxErr
}

// newRelaxation forms the trunk pools: the fabric-interior out-link and
// in-link bundles of every switch, in ascending switch order. Links
// incident to a server stay out of pools (they are exact per-flow
// constraints already), and singleton bundles duplicate their one real
// constraint, so only pools of two or more interior links survive. Each
// real link belongs to at most one out-pool (keyed by its tail) and one
// in-pool (keyed by its head). It fails if any link is unbounded: the
// relaxation pools concrete capacities.
func newRelaxation(net *topology.Network) (*relaxation, error) {
	links := net.Links()
	nReal := len(links)
	caps := make([]*big.Rat, nReal)
	for _, l := range links {
		if l.Unbounded {
			return nil, fmt.Errorf("partial: link %d is unbounded; the trunk relaxation needs finite capacities", l.ID)
		}
		caps[l.ID] = l.Capacity
	}
	isServer := func(id topology.NodeID) bool {
		k := net.Node(id).Kind
		return k == topology.KindSource || k == topology.KindDestination
	}
	rx := &relaxation{nReal: nReal}
	for side := range rx.poolOf {
		rx.poolOf[side] = make([]int, nReal)
		members := make([][]int, net.NumNodes())
		for _, l := range links {
			rx.poolOf[side][l.ID] = -1
			if !isServer(l.From) && !isServer(l.To) {
				key := [2]topology.NodeID{l.From, l.To}[side]
				members[key] = append(members[key], int(l.ID))
			}
		}
		for _, ids := range members {
			if len(ids) < 2 {
				continue
			}
			pooled := new(big.Rat)
			for _, id := range ids {
				rx.poolOf[side][id] = len(caps) - nReal
				pooled.Add(pooled, links[id].Capacity)
			}
			caps = append(caps, pooled)
		}
	}
	rx.caps = newCapTemplate(caps)
	return rx, nil
}
