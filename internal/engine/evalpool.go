package engine

import (
	"sync"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/obs"
)

// maxPooledTopologies bounds the number of distinct topology keys the
// evaluator pool retains. Past the cap the oldest key is dropped FIFO —
// its idle evaluators are released to their fabrics, and the next
// request for that topology pays one build on a released evaluator's
// scratch. Batch workloads sweep assignments over a handful of
// topologies, so a small cap captures all the reuse.
const maxPooledTopologies = 64

// maxPooledPerKey bounds the idle evaluators kept per topology: the
// steady state needs about one per concurrent batch worker touching the
// topology, and extras past the cap are dropped on put.
const maxPooledPerKey = 16

// evalPool shares prepared core.BlockEvaluators across requests whose
// scenarios have the same topology hash (Prepared.TopoHash, the value
// of codec.TopologyHash): the same (Clos, Collection) pair up to
// canonical order, differing only in demands or
// assignment. Building an evaluator walks every flow's paths and
// allocates the SoA lanes; batch items sweeping assignments over one
// topology would otherwise rebuild identical state per item.
//
// A BlockEvaluator is NOT safe for concurrent use (it water-fills on
// shared scratch), so each key holds a free list: concurrent batch
// workers check out distinct instances and return them. A plain
// mutex-guarded stack, not a sync.Pool — reuse must be deterministic
// (sync.Pool sheds entries under GC pressure and randomly in race
// builds), and the evaluators are cheap enough to keep resident.
//
// An evaluator the pool evicts or drops is released
// (BlockEvaluator.Release) to its prepared fabric, whose own GC-bounded
// pool hands its kernel to the next build on that fabric: a miss then
// resolves only the new flows' lanes. engine.evaluator_builds still
// counts every miss.
type evalPool struct {
	mu   sync.Mutex
	free map[[32]byte][]*core.BlockEvaluator
	// leased counts evaluators currently checked out per key. A key with
	// outstanding leases is never evicted: evicting it would orphan the
	// leases' put — the evaluator silently dropped, the next request
	// paying a rebuild the pool exists to avoid.
	leased map[[32]byte]int
	order  [][32]byte // insertion order, for FIFO eviction

	fabrics *fabricCache // where a miss gets its prepared fabric

	builds *obs.Counter // evaluators constructed (pool misses)
	reuses *obs.Counter // evaluators checked out of a free list (hits)
}

func newEvalPool(o *obs.Obs, fabrics *fabricCache) *evalPool {
	reg := o.Registry()
	return &evalPool{
		free:    make(map[[32]byte][]*core.BlockEvaluator),
		leased:  make(map[[32]byte]int),
		fabrics: fabrics,
		builds:  reg.Counter("engine.evaluator_builds"),
		reuses:  reg.Counter("engine.evaluator_reuses"),
	}
}

// get pops an idle evaluator for key, or nil, and records the lease. On
// first sight of a key it claims a slot in the FIFO order, evicting the
// oldest UNLEASED key past the cap; when every resident key is leased,
// the table temporarily exceeds the cap instead (bounded by the number
// of concurrent leases, which admission control already bounds).
func (p *evalPool) get(key [32]byte) *core.BlockEvaluator {
	p.mu.Lock()
	defer p.mu.Unlock()
	stack, ok := p.free[key]
	if !ok {
		if len(p.order) >= maxPooledTopologies {
			for i, old := range p.order {
				if p.leased[old] == 0 {
					for _, bev := range p.free[old] {
						bev.Release()
					}
					delete(p.free, old)
					p.order = append(p.order[:i], p.order[i+1:]...)
					break
				}
			}
		}
		p.free[key] = nil
		p.order = append(p.order, key)
		p.leased[key]++
		return nil
	}
	p.leased[key]++
	if n := len(stack); n > 0 {
		bev := stack[n-1]
		stack[n-1] = nil
		p.free[key] = stack[:n-1]
		return bev
	}
	return nil
}

// put releases a lease and returns the evaluator to its key's free
// list. A full list releases it to its fabric instead.
func (p *evalPool) put(key [32]byte, bev *core.BlockEvaluator) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.leased[key]; n <= 1 {
		delete(p.leased, key)
	} else {
		p.leased[key] = n - 1
	}
	stack, ok := p.free[key]
	if !ok || len(stack) >= maxPooledPerKey {
		bev.Release()
		return
	}
	p.free[key] = append(stack, bev)
}

// acquire checks an evaluator for canon's topology, whose topology hash
// is key, out of the pool, building (and instrumenting) one on a miss —
// on the shared prepared fabric of canon's shape, from the scratch of
// an evaluator released there when it has one, so a miss resolves only
// the flows' lanes. The returned put func returns the evaluator for
// reuse; callers must not touch the evaluator or any scratch-aliasing
// BlockResult views after put.
func (p *evalPool) acquire(key [32]byte, canon *codec.Scenario, o *obs.Obs) (*core.BlockEvaluator, func(), error) {
	if bev := p.get(key); bev != nil {
		p.reuses.Inc()
		return bev, func() { p.put(key, bev) }, nil
	}
	fab, err := p.fabrics.get(shapeOf(canon))
	if err != nil {
		return nil, nil, err
	}
	bev, err := core.NewBlockEvaluator(fab, canon.FlowsOn(fab))
	if err != nil {
		return nil, nil, err
	}
	bev.Instrument(o)
	p.builds.Inc()
	return bev, func() { p.put(key, bev) }, nil
}
