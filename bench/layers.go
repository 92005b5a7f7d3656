package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/engine"
	"closnet/internal/obs"
	"closnet/internal/search"
	"closnet/internal/server"
	"closnet/internal/stats"
	"closnet/internal/topology"
)

// layerSample is how many inputs of each workload the layer pass
// replays: requests, batch bodies or session cycles.
var layerSample = map[string]int{wlWarm: 256, wlCold: 512, wlBatch: 16, wlSearch: 256, wlSession: 4}

func sampleSize(name string, o options) int {
	n := layerSample[name]
	if o.sample > 0 {
		n = min(n, o.sample)
	}
	if name == wlSearch {
		// Whole cycles, so that every search op is timed.
		n = max(n, len(searchCycle))
	}
	return n
}

// layerSamples holds, per per-layer metric, one value per timed call
// (µs) or per input.
type layerSamples map[string][]float64

func (ls layerSamples) time(name string, d time.Duration) {
	ls[name] = append(ls[name], float64(d.Nanoseconds())/1e3)
}

func (ls layerSamples) value(name string, v float64) { ls[name] = append(ls[name], v) }

// summarize reduces the samples to per-layer metrics: the median of a
// timing, its p99 where the metric names one, and the mean of a size or
// count.
func (ls layerSamples) summarize() map[string]float64 {
	out := make(map[string]float64)
	for _, d := range perLayer {
		base, p99 := strings.CutSuffix(d.name, ".p99")
		if len(ls[base]) == 0 {
			continue
		}
		s := stats.Summarize(ls[base])
		switch {
		case p99:
			out[d.name] = s.P99
		case d.unit == "us":
			out[d.name] = s.P50
		default:
			out[d.name] = s.Mean
		}
	}
	return out
}

// layerPass replays a sample of the workload's inputs in-process, with
// no HTTP, and times each module's public function on each input. A
// layer's self time is its call's time minus the nested calls timed on
// the same input. No other workload's requests reach the search layer or
// the session path, so those are timed on the seeded inputs of
// search-mix and session-churn in every trace run.
func layerPass(name string, in *inputs, o options) (layerSamples, error) {
	p, err := newProbe()
	if err != nil {
		return nil, err
	}
	ls := layerSamples{}
	n := sampleSize(name, o)
	if in.cycles != nil {
		err = p.sessions(ls, in.cycles[:n], true)
	} else {
		err = p.stateless(ls, name, in.reqs, n)
	}
	if err != nil {
		return nil, err
	}
	if name != wlSearch {
		sin, err := buildInputs(wlSearch, o.seed)
		if err != nil {
			return nil, err
		}
		if err := p.searches(ls, sin.reqs[:sampleSize(wlSearch, o)]); err != nil {
			return nil, err
		}
	}
	if name != wlSession {
		sin, err := buildInputs(wlSession, o.seed)
		if err != nil {
			return nil, err
		}
		if err := p.sessions(ls, sin.cycles[:sampleSize(wlSession, o)], false); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// probe is the layer pass's system under test: a default server reached
// through its handler, and a separate engine with the server's engine
// options whose evaluator-pool counter tells pool hits from misses.
type probe struct {
	handler http.Handler
	eng     *engine.Engine
	builds  *obs.Counter
	ctx     context.Context
}

func newProbe() (*probe, error) {
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	return &probe{
		handler: srv.Handler(),
		eng:     engine.New(engine.Options{SearchWorkers: 1, Obs: &obs.Obs{Reg: reg}}),
		builds:  reg.Counter("engine.evaluator_builds"),
		ctx:     context.Background(),
	}, nil
}

// do sends one request through the server's handler into an in-memory
// recorder and times it.
func (p *probe) do(path string, body []byte) (*httptest.ResponseRecorder, time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	p.handler.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec, d, nil
}

// serve is do for a timed request of the workload.
func (p *probe) serve(ls layerSamples, path string, body []byte) (*httptest.ResponseRecorder, time.Duration, error) {
	rec, d, err := p.do(path, body)
	if err != nil {
		return nil, 0, err
	}
	ls.time("server.handler_us", d)
	ls.value("codec.request_kb", float64(len(body))/1024)
	ls.value("codec.response_kb", float64(rec.Body.Len())/1024)
	return rec, d, nil
}

// stateless replays n requests in window order: after the warm-up pass,
// and for evaluate-warm from a filled result cache.
func (p *probe) stateless(ls layerSamples, name string, reqs []request, n int) error {
	if name == wlWarm {
		for i := range reqs {
			if _, _, err := p.do(reqs[i].path, reqs[i].body); err != nil {
				return err
			}
		}
	}
	first := min(len(reqs), server.DefaultCacheSize)
	var group []engine.Request
	for i := 0; i < n; i++ {
		r := &reqs[(first+i)%len(reqs)]
		rec, dServe, err := p.serve(ls, r.path, r.body)
		if err != nil {
			return err
		}
		if r.items != nil {
			if err := p.batch(ls, r, dServe); err != nil {
				return err
			}
			continue
		}
		scen, dDecode, err := p.decode(ls, r.body)
		if err != nil {
			return err
		}
		dRun, err := p.scenario(ls, r.op, scen)
		if err != nil {
			return err
		}
		// A raw-key cache hit answers before decoding anything.
		if rec.Header().Get("X-Closnet-Cache") == "hit" {
			ls.time("server.self_us", dServe)
		} else {
			ls.time("server.self_us", dServe-dDecode-dRun)
		}
		if group = append(group, engine.Request{Op: r.op, Scenario: scen}); len(group) == batchItems || i == n-1 {
			if _, err := p.runBatch(ls, group); err != nil {
				return err
			}
			group = group[:0]
		}
	}
	return nil
}

// batch times one /v1/batch body's layers. The handler decodes every
// item and then fans the items out through Engine.RunBatch; its self
// time is its own minus those nested calls.
func (p *probe) batch(ls layerSamples, r *request, dServe time.Duration) error {
	reqs := make([]engine.Request, len(r.items))
	var dDecode time.Duration
	for j, item := range r.items {
		scen, d, err := p.decode(ls, item)
		if err != nil {
			return err
		}
		dDecode += d
		reqs[j] = engine.Request{Op: r.op, Scenario: scen}
		if _, err := p.scenario(ls, r.op, scen); err != nil {
			return err
		}
	}
	dBatch, err := p.runBatch(ls, reqs)
	if err != nil {
		return err
	}
	ls.time("server.self_us", dServe-dDecode-dBatch)
	return nil
}

func (p *probe) decode(ls layerSamples, body []byte) (*codec.Scenario, time.Duration, error) {
	t0 := time.Now()
	scen, err := codec.Decode(body)
	d := time.Since(t0)
	ls.time("codec.decode_us", d)
	return scen, d, err
}

// runBatch times Engine.RunBatch with the server's fan-out.
func (p *probe) runBatch(ls layerSamples, reqs []engine.Request) (time.Duration, error) {
	t0 := time.Now()
	res := p.eng.RunBatch(p.ctx, reqs, runtime.GOMAXPROCS(0), nil)
	d := time.Since(t0)
	for _, r := range res {
		if r.Err != nil {
			return 0, r.Err
		}
	}
	ls.time("engine.batch_item_us", d/time.Duration(len(reqs)))
	return d, nil
}

// scenario times the codec hashes, Engine.Prepare and Engine.Compute on
// one decoded scenario, then the topology, core and search calls that
// Compute nests. It returns prepare plus compute time.
func (p *probe) scenario(ls layerSamples, op string, scen *codec.Scenario) (time.Duration, error) {
	t0 := time.Now()
	canon, _, err := codec.CanonicalHash(scen)
	dCanon := time.Since(t0)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	_, err = codec.TopologyHash(canon)
	dTopo := time.Since(t0)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	prep, err := p.eng.Prepare(engine.Request{Op: op, Scenario: scen})
	dPrep := time.Since(t0)
	if err != nil {
		return 0, err
	}
	builds := p.builds.Value()
	t0 = time.Now()
	_, err = p.eng.Compute(p.ctx, prep)
	dCompute := time.Since(t0)
	if err != nil {
		return 0, err
	}
	poolMiss := p.builds.Value() > builds

	t0 = time.Now()
	fab, fs, _, ma, err := prep.Canon.Build()
	dBuild := time.Since(t0)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	bev, err := core.NewBlockEvaluator(fab, fs)
	dEval := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if ma == nil {
		ma = core.UniformAssignment(len(fs), 1)
	}
	// A fresh evaluator's first fill sizes its scratch; a pooled one's
	// is already sized.
	t0 = time.Now()
	_, err = bev.EvalBlock(ma, 1)
	dFillFresh := time.Since(t0)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	_, err = bev.EvalBlock(ma, 1)
	dFill := time.Since(t0)
	if err != nil {
		return 0, err
	}

	// The evaluate op keys the evaluator pool by topology hash; on a miss
	// it builds the fabric and a fresh evaluator. A search op builds the
	// fabric and searches.
	nested := dTopo + dFill
	switch {
	case op != engine.OpEvaluate:
		dSearch, err := p.search(ls, op, fab, fs)
		if err != nil {
			return 0, err
		}
		nested = dBuild + dSearch
	case poolMiss:
		nested = dTopo + dBuild + dEval + dFillFresh
	}
	ls.time("codec.canonical_hash_us", dCanon)
	ls.time("codec.topology_hash_us", dTopo)
	ls.time("engine.prepare_us", dPrep)
	ls.time("engine.compute_us", dCompute)
	ls.time("engine.compute_self_us", dCompute-nested)
	ls.time("topology.build_us", dBuild)
	ls.time("core.evaluator_build_us", dEval)
	ls.time("core.block_fill_us", dFill)
	return dPrep + dCompute, nil
}

// searchLayers names the per-layer metrics of each search op.
var searchLayers = map[string]string{
	engine.OpSearchLexPruned:        "lex_pruned",
	engine.OpSearchLex:              "lex_exhaustive",
	engine.OpSearchThroughputPruned: "throughput_pruned",
}

// search times the search call of a search op with the engine's
// options.
func (p *probe) search(ls layerSamples, op string, fab topology.Fabric, fs core.Collection) (time.Duration, error) {
	opts := p.eng.SearchOptions(p.ctx)
	opts.Pruned = op != engine.OpSearchLex
	run := search.LexMaxMin
	if op == engine.OpSearchThroughputPruned {
		run = search.ThroughputMaxMin
	}
	t0 := time.Now()
	res, err := run(fab, fs, opts)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	ls.time("search."+searchLayers[op]+"_us", d)
	ls.value("search.states_per_req."+searchLayers[op], float64(res.States))
	return d, nil
}

// searches times only the search calls of search requests.
func (p *probe) searches(ls layerSamples, reqs []request) error {
	for i := range reqs {
		scen, err := codec.Decode(reqs[i].body)
		if err != nil {
			return err
		}
		canon, err := codec.Canonical(scen)
		if err != nil {
			return err
		}
		fab, fs, _, _, err := canon.Build()
		if err != nil {
			return err
		}
		if _, err := p.search(ls, reqs[i].op, fab, fs); err != nil {
			return err
		}
	}
	return nil
}

// sessions replays session cycles. Each delta is timed through
// Sessions.Delta on the probe's engine and as a bare IncrementalEvaluator
// call. With serving set, each delta is also timed through the server's
// handler, and the scenario layers are timed on the state after the
// delta: the state its response describes, which a one-shot evaluate
// would recompute from scratch.
func (p *probe) sessions(ls layerSamples, cycles []cycle, serving bool) error {
	var group []engine.Request
	for c := range cycles {
		cy := &cycles[c]
		open, err := codec.Decode(cy.open)
		if err != nil {
			return err
		}
		t0 := time.Now()
		sess, err := p.eng.Sessions().Open(p.ctx, open)
		ls.time("engine.session_open_us", time.Since(t0))
		if err != nil {
			return err
		}
		inc, err := newIncremental(open)
		if err != nil {
			return err
		}
		var url string
		if serving {
			rec, _, err := p.do("/v1/session", cy.open)
			if err != nil {
				return err
			}
			var opened struct {
				Session string `json:"session"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &opened); err != nil {
				return err
			}
			url = "/v1/session/" + opened.Session
		}
		live := newLiveSet(open)
		for j, d := range cy.deltas {
			var dServe time.Duration
			if serving {
				if _, dServe, err = p.serve(ls, url+"/delta", cy.bodies[j]); err != nil {
					return err
				}
			}
			t0 = time.Now()
			dd, err := codec.DecodeDelta(cy.bodies[j])
			dDecode := time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, err = p.eng.Sessions().Delta(p.ctx, sess.Session, dd)
			dDelta := time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			err = inc.apply(d)
			dCore := time.Since(t0)
			if err != nil {
				return err
			}
			ls.time("engine.session_delta_us", dDelta)
			ls.time("core.delta_us", dCore)
			live.apply(d)
			if !serving {
				continue
			}
			ls.time("codec.decode_us", dDecode)
			ls.time("server.self_us", dServe-dDecode-dDelta)
			state := live.scenario()
			if _, err := p.scenario(ls, engine.OpEvaluate, state); err != nil {
				return err
			}
			if group = append(group, engine.Request{Op: engine.OpEvaluate, Scenario: state}); len(group) == batchItems {
				if _, err := p.runBatch(ls, group); err != nil {
					return err
				}
				group = group[:0]
			}
		}
		if _, err := p.eng.Sessions().Close(p.ctx, sess.Session); err != nil {
			return err
		}
		if serving {
			if _, _, err := p.do(url+"/close", nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// incremental replays session deltas on a bare core.IncrementalEvaluator.
type incremental struct {
	fab     topology.Fabric
	ie      *core.IncrementalEvaluator
	handles map[int]core.FlowID // session flow ID → evaluator handle
	next    int
}

func newIncremental(open *codec.Scenario) (*incremental, error) {
	fab, err := topology.BuildFamily(open.Topology, open.Tors, open.Servers, open.Middles)
	if err != nil {
		return nil, err
	}
	inc := &incremental{fab: fab, ie: core.NewIncrementalEvaluator(fab), handles: make(map[int]core.FlowID)}
	for i := range open.Flows {
		if err := inc.apply(codec.Delta{Op: codec.DeltaArrive, Flow: &open.Flows[i], Middle: open.Assignment[i]}); err != nil {
			return nil, err
		}
	}
	return inc, nil
}

func (inc *incremental) apply(d codec.Delta) error {
	switch d.Op {
	case codec.DeltaArrive:
		f := core.Flow{Src: inc.fab.Source(d.Flow.SrcSwitch, d.Flow.SrcServer), Dst: inc.fab.Dest(d.Flow.DstSwitch, d.Flow.DstServer)}
		h, err := inc.ie.Arrive(f, d.Middle)
		if err != nil {
			return err
		}
		inc.handles[inc.next] = h
		inc.next++
		return nil
	case codec.DeltaDepart:
		h := inc.handles[d.ID]
		delete(inc.handles, d.ID)
		return inc.ie.Depart(h)
	default:
		return inc.ie.Reroute(inc.handles[d.ID], d.Middle)
	}
}
