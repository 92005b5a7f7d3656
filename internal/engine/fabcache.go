package engine

import (
	"errors"
	"sync"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/obs"
	"closnet/internal/topology"
)

// fabricBudget bounds the fabric cache by the total link count of the
// fabrics it retains. A prepared fabric retains 285–446 bytes per link
// with its relaxation template built (DESIGN.md §5f), so the budget
// holds at most about 28 MiB — hundreds of the fabrics served traffic
// names (C_5 has 200 links, the 4-pod fat-tree 96) — while a fabric
// larger than the whole budget, such as one at the codec's size caps
// (131,072 links), is served but never retained. The evaluators
// released on a fabric wait in its sync.Pools, which the GC empties,
// so the budget need not count them.
const fabricBudget = 1 << 16

// fabricShape is the cache key: a fabric depends only on its family
// and shape, never on the flows, demands or assignment of a scenario.
type fabricShape struct {
	family                 string
	tors, servers, middles int
}

// shapeOf returns the shape a scenario names, spelling Clos as the
// empty family like the canonical form does.
func shapeOf(s *codec.Scenario) fabricShape {
	family := s.Topology
	if family == topology.FamilyClos {
		family = ""
	}
	return fabricShape{family, s.Tors, s.Servers, s.Middles}
}

// fabricCache is the engine's bounded, shape-keyed cache of prepared
// fabrics (core.PreparedFabric), shared by the evaluator pool, search,
// doom and the session table. A prepared fabric is immutable, so every
// request on a shape shares one and nothing is leased. Concurrent
// misses on one shape share one build; the retained fabrics are kept
// in insertion order and the oldest are evicted once their links
// exceed the budget.
type fabricCache struct {
	mu      sync.Mutex
	entries map[fabricShape]*fabricEntry // retained and in-flight builds
	order   []fabricShape                // retained shapes, oldest first
	links   int                          // total links of the retained fabrics
	budget  int

	builds *obs.Counter // fabrics built (misses)
	hits   *obs.Counter // requests served by a retained or in-flight build
}

// fabricEntry is one shape's build, run once.
type fabricEntry struct {
	once sync.Once
	fab  *core.PreparedFabric
	err  error
}

func newFabricCache(o *obs.Obs, budget int) *fabricCache {
	reg := o.Registry()
	return &fabricCache{
		entries: make(map[fabricShape]*fabricEntry),
		budget:  budget,
		builds:  reg.Counter("engine.fabric_builds"),
		hits:    reg.Counter("engine.fabric_hits"),
	}
}

// errFabricBuild reports a build that panicked under another request.
var errFabricBuild = errors.New("engine: fabric build failed")

// get returns the prepared fabric of shape, building it through
// topology.BuildFamily on a miss.
func (fc *fabricCache) get(shape fabricShape) (*core.PreparedFabric, error) {
	fc.mu.Lock()
	e, hit := fc.entries[shape]
	if !hit {
		e = &fabricEntry{}
		fc.entries[shape] = e
	}
	fc.mu.Unlock()
	if hit {
		fc.hits.Inc()
	}
	e.once.Do(func() {
		defer fc.admit(shape, e)
		fc.builds.Inc()
		fab, err := topology.BuildFamily(shape.family, shape.tors, shape.servers, shape.middles)
		if err != nil {
			e.err = err
			return
		}
		e.fab = core.PrepareFabric(fab)
	})
	if e.fab == nil && e.err == nil {
		return nil, errFabricBuild
	}
	return e.fab, e.err
}

// admit retains a finished build and evicts the oldest retained
// fabrics past the budget. A failed build, or a fabric larger than the
// whole budget, is dropped: its requests are served, and the next one
// builds again.
func (fc *fabricCache) admit(shape fabricShape, e *fabricEntry) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if e.fab == nil || e.fab.Network().NumLinks() > fc.budget {
		delete(fc.entries, shape)
		return
	}
	fc.order = append(fc.order, shape)
	fc.links += e.fab.Network().NumLinks()
	for fc.links > fc.budget {
		old := fc.order[0]
		fc.order = fc.order[1:]
		fc.links -= fc.entries[old].fab.Network().NumLinks()
		delete(fc.entries, old)
	}
}
