package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/gen"
	"closnet/internal/server"
)

// Working-set sizes. Each is chosen against the server's own caches, so
// that a workload lands on the intended side of them.
const (
	warmScenarios    = 256                         // fits the result cache: every timed request hits
	coldScenarios    = 4 * server.DefaultCacheSize // 4× the LRU, cycled: no request ever hits
	batchBodies      = 128
	batchItems       = 32 // one topology per body, so the evaluator pool is reused
	searchInstances  = 2048
	sessionCycles    = 64
	sessionOpenFlows = 16
	sessionDeltas    = 256
	sessionMaxLive   = 48
	sessionMinLive   = 8
)

// The five workloads, in report order.
const (
	wlWarm    = "evaluate-warm"
	wlCold    = "evaluate-cold"
	wlBatch   = "batch-sweep"
	wlSearch  = "search-mix"
	wlSession = "session-churn"
)

var workloadNames = []string{wlWarm, wlCold, wlBatch, wlSearch, wlSession}

// request is one stateless HTTP request of a workload.
type request struct {
	path string // URL path and query
	op   string // engine op the server runs per scenario
	body []byte
	// items holds the scenario of each /v1/batch item; nil otherwise.
	items [][]byte
}

// cycle is one session-churn cycle: open, deltas, close.
type cycle struct {
	open   []byte
	deltas []codec.Delta
	bodies [][]byte // deltas, encoded
	end    *codec.Scenario
}

// inputs is a workload's whole working set. Exactly one field is set.
type inputs struct {
	reqs   []request
	cycles []cycle
}

func (in *inputs) size() int { return len(in.reqs) + len(in.cycles) }

// buildInputs generates a workload's working set. It is a pure function
// of (name, seed): each workload draws from its own stream, so adding a
// workload never changes another's inputs.
func buildInputs(name string, seed int64) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	switch name {
	case wlWarm:
		reqs, err := evaluateRequests(rng, warmScenarios)
		return &inputs{reqs: reqs}, err
	case wlCold:
		reqs, err := evaluateRequests(rng, coldScenarios)
		return &inputs{reqs: reqs}, err
	case wlBatch:
		reqs, err := batchRequests(rng)
		return &inputs{reqs: reqs}, err
	case wlSearch:
		reqs, err := searchRequests(rng)
		return &inputs{reqs: reqs}, err
	case wlSession:
		cycles, err := sessionInputs(rng)
		return &inputs{cycles: cycles}, err
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// evaluateSpecs are the fabrics of evaluate-warm, evaluate-cold and
// batch-sweep: C_4, C_5, fat-tree k=4, Benes 8 and a 2:1 oversubscribed
// Clos.
func evaluateSpecs() ([]gen.Spec, error) {
	return specs(
		func() (gen.Spec, error) { return gen.ClosSpec(4) },
		func() (gen.Spec, error) { return gen.ClosSpec(5) },
		func() (gen.Spec, error) { return gen.FatTreeSpec(4) },
		func() (gen.Spec, error) { return gen.BenesSpec(8) },
		func() (gen.Spec, error) { return gen.OversubscribedClosSpec(4, 4, 2, 1) },
	)
}

func specs(mks ...func() (gen.Spec, error)) ([]gen.Spec, error) {
	out := make([]gen.Spec, len(mks))
	for i, mk := range mks {
		sp, err := mk()
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// drawScenario generates one scenario on a random fabric of sps under a
// random traffic model, with a flow count in [minFlows, maxFlows] and
// no assignment.
func drawScenario(rng *rand.Rand, sps []gen.Spec, minFlows, maxFlows int) (*codec.Scenario, error) {
	models := gen.Models()
	return gen.Scenario(sps[rng.Intn(len(sps))], gen.TrafficConfig{
		Model:            models[rng.Intn(len(models))],
		Flows:            minFlows + rng.Intn(maxFlows-minFlows+1),
		ElephantFraction: 0.25,
		Seed:             rng.Int63(),
	})
}

func randomAssignment(rng *rand.Rand, flows, middles int) []int {
	ma := make([]int, flows)
	for i := range ma {
		ma[i] = 1 + rng.Intn(middles)
	}
	return ma
}

// hashSet admits each canonical scenario once, so a working set of n
// requests holds n distinct content addresses.
type hashSet map[[32]byte]bool

func (hs hashSet) add(s *codec.Scenario) (bool, error) {
	sum, err := s.Hash()
	if err != nil || hs[sum] {
		return false, err
	}
	hs[sum] = true
	return true, nil
}

func evaluateRequests(rng *rand.Rand, n int) ([]request, error) {
	sps, err := evaluateSpecs()
	if err != nil {
		return nil, err
	}
	seen := hashSet{}
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		s, err := drawScenario(rng, sps, 16, 48)
		if err != nil {
			return nil, err
		}
		s.Assignment = randomAssignment(rng, len(s.Flows), s.Middles)
		fresh, err := seen.add(s)
		if err != nil {
			return nil, err
		}
		if !fresh {
			continue
		}
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{path: "/v1/evaluate", op: engine.OpEvaluate, body: body})
	}
	return reqs, nil
}

type batchItem struct {
	Scenario json.RawMessage `json:"scenario"`
}

type batchEnvelope struct {
	Op    string      `json:"op"`
	Items []batchItem `json:"items"`
}

// batchRequests draws one traffic matrix per body and sweeps it over
// batchItems distinct random assignments, so every item of a body shares
// one codec.TopologyHash.
func batchRequests(rng *rand.Rand) ([]request, error) {
	sps, err := evaluateSpecs()
	if err != nil {
		return nil, err
	}
	seen := hashSet{}
	reqs := make([]request, 0, batchBodies)
	for len(reqs) < batchBodies {
		s, err := drawScenario(rng, sps, 16, 48)
		if err != nil {
			return nil, err
		}
		env := batchEnvelope{Op: engine.OpEvaluate}
		var items [][]byte
		for len(items) < batchItems {
			s.Assignment = randomAssignment(rng, len(s.Flows), s.Middles)
			fresh, err := seen.add(s)
			if err != nil {
				return nil, err
			}
			if !fresh {
				continue
			}
			item, err := json.Marshal(s)
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			env.Items = append(env.Items, batchItem{Scenario: item})
		}
		body, err := json.Marshal(env)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{path: "/v1/batch", op: engine.OpEvaluate, body: body, items: items})
	}
	return reqs, nil
}

// searchKind is one slot of the search-mix cycle.
type searchKind struct {
	spec  func() (gen.Spec, error)
	flows int
	path  string
	op    string
}

// searchCycle is the search-mix request cycle: 3 pruned lex searches on
// C_4, 3 on fat-tree k=4, one exhaustive lex search on C_3 and one
// pruned throughput search on C_3. Throughput-pruned on fat-tree is left
// out: at 7–8 flows one request takes from 20 ms to several seconds.
var searchCycle = func() []searchKind {
	c4 := func() (gen.Spec, error) { return gen.ClosSpec(4) }
	ft := func() (gen.Spec, error) { return gen.FatTreeSpec(4) }
	c3 := func() (gen.Spec, error) { return gen.ClosSpec(3) }
	lexPruned := "/v1/search?objective=lex&strategy=pruned"
	return []searchKind{
		{c4, 7, lexPruned, engine.OpSearchLexPruned},
		{c4, 7, lexPruned, engine.OpSearchLexPruned},
		{c4, 7, lexPruned, engine.OpSearchLexPruned},
		{ft, 7, lexPruned, engine.OpSearchLexPruned},
		{ft, 7, lexPruned, engine.OpSearchLexPruned},
		{ft, 7, lexPruned, engine.OpSearchLexPruned},
		{c3, 6, "/v1/search?objective=lex", engine.OpSearchLex},
		{c3, 5, "/v1/search?objective=throughput&strategy=pruned", engine.OpSearchThroughputPruned},
	}
}()

func searchRequests(rng *rand.Rand) ([]request, error) {
	seen := hashSet{}
	reqs := make([]request, 0, searchInstances)
	for len(reqs) < searchInstances {
		k := searchCycle[len(reqs)%len(searchCycle)]
		sp, err := k.spec()
		if err != nil {
			return nil, err
		}
		s, err := drawScenario(rng, []gen.Spec{sp}, k.flows, k.flows)
		if err != nil {
			return nil, err
		}
		fresh, err := seen.add(s)
		if err != nil {
			return nil, err
		}
		if !fresh {
			continue
		}
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{path: k.path, op: k.op, body: body})
	}
	return reqs, nil
}

// liveFlow is one flow of a session as the benchmark tracks it: the ID
// the server assigned, its endpoints and its middle.
type liveFlow struct {
	id     int
	flow   codec.FlowJSON
	middle int
}

// liveSet mirrors a session's state client-side. The server assigns IDs
// 0..n-1 to the opening flows in canonical order and the next free ID to
// each arrival, so the IDs are known without reading responses.
type liveSet struct {
	shape codec.Scenario // topology and shape only
	flows []liveFlow
	next  int
}

// newLiveSet starts from a canonical scenario, whose flow order is the
// order the server numbers them in.
func newLiveSet(canon *codec.Scenario) *liveSet {
	ls := &liveSet{shape: codec.Scenario{Topology: canon.Topology, Tors: canon.Tors, Servers: canon.Servers, Middles: canon.Middles}}
	for i, f := range canon.Flows {
		ls.flows = append(ls.flows, liveFlow{id: i, flow: f, middle: canon.Assignment[i]})
	}
	ls.next = len(canon.Flows)
	return ls
}

func (ls *liveSet) apply(d codec.Delta) {
	switch d.Op {
	case codec.DeltaArrive:
		ls.flows = append(ls.flows, liveFlow{id: ls.next, flow: *d.Flow, middle: d.Middle})
		ls.next++
	case codec.DeltaDepart:
		i := ls.index(d.ID)
		ls.flows = append(ls.flows[:i], ls.flows[i+1:]...)
	case codec.DeltaReroute:
		ls.flows[ls.index(d.ID)].middle = d.Middle
	}
}

func (ls *liveSet) index(id int) int {
	for i, f := range ls.flows {
		if f.id == id {
			return i
		}
	}
	panic(fmt.Sprintf("bench: session flow %d is not live", id))
}

// scenario is the session's current state as a one-shot evaluate
// request.
func (ls *liveSet) scenario() *codec.Scenario {
	s := ls.shape
	s.Flows = make([]codec.FlowJSON, len(ls.flows))
	s.Assignment = make([]int, len(ls.flows))
	for i, f := range ls.flows {
		s.Flows[i], s.Assignment[i] = f.flow, f.middle
	}
	return &s
}

// nextDelta draws one delta: arrive 45% while fewer than sessionMaxLive
// flows are live, depart 35% while more than sessionMinLive are, and
// reroute otherwise.
func (ls *liveSet) nextDelta(rng *rand.Rand) codec.Delta {
	r := rng.Float64()
	switch {
	case r < 0.45 && len(ls.flows) < sessionMaxLive:
		for {
			f := codec.FlowJSON{
				SrcSwitch: 1 + rng.Intn(ls.shape.Tors), SrcServer: 1 + rng.Intn(ls.shape.Servers),
				DstSwitch: 1 + rng.Intn(ls.shape.Tors), DstServer: 1 + rng.Intn(ls.shape.Servers),
			}
			if !ls.has(f) {
				return codec.Delta{Op: codec.DeltaArrive, Flow: &f, Middle: 1 + rng.Intn(ls.shape.Middles)}
			}
		}
	case r < 0.80 && len(ls.flows) > sessionMinLive:
		return codec.Delta{Op: codec.DeltaDepart, ID: ls.flows[rng.Intn(len(ls.flows))].id}
	default:
		f := ls.flows[rng.Intn(len(ls.flows))]
		m := 1 + rng.Intn(ls.shape.Middles-1)
		if m >= f.middle {
			m++
		}
		return codec.Delta{Op: codec.DeltaReroute, ID: f.id, Middle: m}
	}
}

func (ls *liveSet) has(f codec.FlowJSON) bool {
	for _, lf := range ls.flows {
		if lf.flow == f {
			return true
		}
	}
	return false
}

// sessionInputs draws sessionCycles cycles on C_5: a 16-flow opening
// scenario and sessionDeltas deltas each.
func sessionInputs(rng *rand.Rand) ([]cycle, error) {
	sp, err := gen.ClosSpec(5)
	if err != nil {
		return nil, err
	}
	cycles := make([]cycle, sessionCycles)
	for c := range cycles {
		s, err := drawScenario(rng, []gen.Spec{sp}, sessionOpenFlows, sessionOpenFlows)
		if err != nil {
			return nil, err
		}
		// Sessions drop demands; sending the canonical form makes the
		// server's flow numbering the slice order.
		s.Demands = nil
		s.Assignment = randomAssignment(rng, len(s.Flows), s.Middles)
		canon, err := codec.Canonical(s)
		if err != nil {
			return nil, err
		}
		cy := &cycles[c]
		if cy.open, err = json.Marshal(canon); err != nil {
			return nil, err
		}
		ls := newLiveSet(canon)
		for j := 0; j < sessionDeltas; j++ {
			d := ls.nextDelta(rng)
			body, err := json.Marshal(d)
			if err != nil {
				return nil, err
			}
			ls.apply(d)
			cy.deltas = append(cy.deltas, d)
			cy.bodies = append(cy.bodies, body)
		}
		cy.end = ls.scenario()
	}
	return cycles, nil
}
