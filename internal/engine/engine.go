// Package engine is the one compute entry point of closnet: a typed
// operation registry mapping op names (evaluate, search:lex,
// search:throughput, search:relative, doom) to compute functions over
// canonical scenarios. Every transport — the closnetd HTTP handlers,
// the CLI tools, the batch sweeps — builds a Request and calls Run (or
// RunBatch); the engine owns the three things that must never be
// duplicated per transport:
//
//   - canonicalization: every computation runs on the canonical form of
//     its scenario (codec.Canonicalize), so semantically equal requests
//     share one content address and one response body;
//   - deterministic encoding: each op produces a single-line compact
//     JSON body (codec's body writer: EvaluateBody, SearchBody, ...)
//     that is byte-identical across transports, cacheable, and
//     concatenable into batch responses;
//   - observability: per-op counters and one engine.compute span per
//     computation, whatever the caller.
//
// Adding an objective is registering one op — no new endpoint, flag
// set, or encoder. Transports stay ~50-line adapters: decode → Run →
// reply.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/obs"
	"closnet/internal/search"
)

// The registered operation names. The :pruned search variants run the
// bound-guided branch-and-bound (search.Options.Pruned); they are
// distinct ops — not a request flag — because their response bodies
// differ from the exhaustive ones in the states field, and op names
// double as content-addressed cache keys, which must never map two
// different bodies to one address.
const (
	OpEvaluate               = "evaluate"
	OpSearchLex              = "search:lex"
	OpSearchThroughput       = "search:throughput"
	OpSearchRelative         = "search:relative"
	OpSearchLexPruned        = "search:lex:pruned"
	OpSearchThroughputPruned = "search:throughput:pruned"
	OpDoom                   = "doom"
)

// Options configures an Engine.
type Options struct {
	// SearchWorkers is the enumeration worker count of every search:*
	// op, following the search.Options.Workers policy (0 = one worker
	// per core, 1 = serial; results are bit-identical either way).
	// Callers serving many concurrent requests want 1; CLIs sweeping
	// one instance want 0.
	SearchWorkers int
	// MaxStates caps each search:* enumeration
	// (0 = search.DefaultMaxStates).
	MaxStates int
	// Obs attaches the observability layer: per-op compute counters, a
	// compute latency timer, and one engine.compute span per computation,
	// the root of its own trace on the journal outside a request. nil
	// disables instrumentation.
	Obs *obs.Obs
	// MaxSessions bounds the session table (0 = DefaultMaxSessions).
	MaxSessions int
	// SessionTTL is the idle lifetime of a session before lazy eviction
	// (0 = DefaultSessionTTL).
	SessionTTL time.Duration
}

// Request names one compute operation over one scenario, the transport-
// independent unit of work.
type Request struct {
	Op       string
	Scenario *codec.Scenario
}

// Prepared is a canonicalized, content-addressed request: the validated
// op, the canonical scenario, its SHA-256 content hash and its topology
// hash, both hashed from one encoding of the canonical form. Transports
// that cache or coalesce key on (Op, Hash) before computing; the
// evaluator pool keys on TopoHash.
type Prepared struct {
	Op       string
	Canon    *codec.Scenario
	Hash     [32]byte
	TopoHash [32]byte
}

// Response is one computed result: the op, the content address of the
// canonical scenario, and the deterministic single-line JSON body.
type Response struct {
	Op   string
	Hash [32]byte
	Body []byte
}

// computeFunc is one registered operation: it computes over the
// prepared canonical scenario and returns the encoded response body. It
// must honor ctx and must be deterministic — same canonical scenario,
// same bytes.
type computeFunc func(ctx context.Context, e *Engine, p *Prepared) ([]byte, error)

// Engine dispatches requests through the op registry. Create with New;
// an Engine is immutable and safe for concurrent use.
type Engine struct {
	opts Options
	ops  map[string]computeFunc
	// fabrics shares one prepared fabric per shape across every op and
	// the session table (fabcache.go).
	fabrics *fabricCache
	// evals shares prepared block evaluators across requests with equal
	// topology hashes (Prepared.TopoHash) — batch items sweeping
	// assignments over one topology build the SoA evaluator once
	// (evalpool.go).
	evals *evalPool
	// sessions is the stateful session table behind the session:* op
	// family; it lives outside the Prepare/Compute registry (session.go).
	sessions *Sessions

	mComputes *obs.Counter
	mErrors   *obs.Counter
	mLatency  *obs.Timer
}

// New builds an Engine with the standard op registry.
func New(opts Options) *Engine {
	reg := opts.Obs.Registry()
	fabrics := newFabricCache(opts.Obs, fabricBudget)
	return &Engine{
		opts: opts,
		ops: map[string]computeFunc{
			OpEvaluate:               computeEvaluate,
			OpSearchLex:              searchOp("lex", false),
			OpSearchThroughput:       searchOp("throughput", false),
			OpSearchRelative:         searchOp("relative", false),
			OpSearchLexPruned:        searchOp("lex", true),
			OpSearchThroughputPruned: searchOp("throughput", true),
			OpDoom:                   computeDoom,
		},
		fabrics:   fabrics,
		evals:     newEvalPool(opts.Obs, fabrics),
		sessions:  newSessions(opts, fabrics),
		mComputes: reg.Counter("engine.computes"),
		mErrors:   reg.Counter("engine.errors"),
		mLatency:  reg.Timer("engine.compute_latency"),
	}
}

// Ops returns every operation name the engine serves, sorted. The
// session:* family is included even though it is served through the
// typed Sessions API rather than Prepare/Compute — Ops is the surface
// transports enumerate.
func (e *Engine) Ops() []string {
	ops := make([]string, 0, len(e.ops)+3)
	for op := range e.ops {
		ops = append(ops, op)
	}
	ops = append(ops, OpSessionOpen, OpSessionDelta, OpSessionClose)
	sort.Strings(ops)
	return ops
}

// Sessions returns the engine's session table, the entry point of the
// stateful session:* op family.
func (e *Engine) Sessions() *Sessions { return e.sessions }

// Obs returns the engine's observability bundle (never nil as a
// handle; a zero bundle disables instrumentation).
func (e *Engine) Obs() *obs.Obs { return e.opts.Obs }

// SearchOptions returns the search.Options every search:* op runs
// with, bounded by ctx. Non-engine search call sites (experiments,
// benchmarks) use it too, so one flag spelling configures them all.
func (e *Engine) SearchOptions(ctx context.Context) search.Options {
	return search.Options{
		MaxStates: e.opts.MaxStates,
		Workers:   e.opts.SearchWorkers,
		Obs:       e.opts.Obs,
		Ctx:       ctx,
	}
}

// fabric returns the shared prepared fabric of a valid scenario's shape
// and the scenario's flows on it.
func (e *Engine) fabric(s *codec.Scenario) (*core.PreparedFabric, core.Collection, error) {
	fab, err := e.fabrics.get(shapeOf(s))
	if err != nil {
		return nil, nil, err
	}
	return fab, s.FlowsOn(fab), nil
}

// Prepare validates the op against the registry and canonicalizes the
// scenario in one codec pass, returning the content-addressed request.
// It does no computation.
func (e *Engine) Prepare(req Request) (*Prepared, error) {
	if err := e.check(req); err != nil {
		return nil, err
	}
	form, err := codec.Canonicalize(req.Scenario)
	if err != nil {
		return nil, err
	}
	return &Prepared{Op: req.Op, Canon: form.Scenario, Hash: form.Hash, TopoHash: form.TopoHash}, nil
}

// PrepareBatch prepares the requests: slot i holds what
// Prepare(reqs[i]) returns, the prepared request or its error. The
// batch is cut into one contiguous part per processor, and each part is
// prepared in order, its scenarios canonicalized in one
// codec.CanonicalizeBatch pass: a request whose scenario has the shape,
// flows and demands of the one before it reuses that one's canonical
// prefix, and their Canon scenarios share Flows and Demands (read-only,
// as every Canon is). The parts run in parallel, so a batch of distinct
// scenarios is canonicalized on every processor, as it would be by the
// fan-out's workers.
func (e *Engine) PrepareBatch(reqs []Request) ([]*Prepared, []error) {
	preps := make([]*Prepared, len(reqs))
	errs := make([]error, len(reqs))
	parts := min(runtime.GOMAXPROCS(0), len(reqs))
	var wg sync.WaitGroup
	for k := 1; k < parts; k++ {
		lo, hi := k*len(reqs)/parts, (k+1)*len(reqs)/parts
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.prepareInOrder(reqs[lo:hi], preps[lo:hi], errs[lo:hi])
		}()
	}
	if parts > 0 {
		hi := len(reqs) / parts
		e.prepareInOrder(reqs[:hi], preps[:hi], errs[:hi])
	}
	wg.Wait()
	return preps, errs
}

// prepareInOrder is PrepareBatch on one part, in order.
func (e *Engine) prepareInOrder(reqs []Request, preps []*Prepared, errs []error) {
	scens := make([]*codec.Scenario, 0, len(reqs))
	at := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if errs[i] = e.check(req); errs[i] == nil {
			scens = append(scens, req.Scenario)
			at = append(at, i)
		}
	}
	forms, ferrs := codec.CanonicalizeBatch(scens)
	ps := make([]Prepared, len(forms))
	for j, i := range at {
		if errs[i] = ferrs[j]; errs[i] != nil {
			continue
		}
		f := &forms[j]
		ps[j] = Prepared{Op: reqs[i].Op, Canon: f.Scenario, Hash: f.Hash, TopoHash: f.TopoHash}
		preps[i] = &ps[j]
	}
}

// check validates a request's op against the registry and its scenario's
// presence.
func (e *Engine) check(req Request) error {
	if _, ok := e.ops[req.Op]; !ok {
		switch req.Op {
		case OpSessionOpen, OpSessionDelta, OpSessionClose:
			return fmt.Errorf("engine: op %q is stateful and served through the session API, not Prepare/Compute", req.Op)
		}
		return fmt.Errorf("engine: unknown op %q (known: %v)", req.Op, e.Ops())
	}
	if req.Scenario == nil {
		return fmt.Errorf("engine: op %q without a scenario", req.Op)
	}
	return nil
}

// Compute runs one prepared request through the op registry and
// returns the deterministic response body. ctx bounds the computation:
// every op propagates cancellation into its compute path and returns
// ctx.Err() with no partial body.
func (e *Engine) Compute(ctx context.Context, p *Prepared) ([]byte, error) {
	fn, ok := e.ops[p.Op]
	if !ok {
		return nil, fmt.Errorf("engine: unknown op %q (known: %v)", p.Op, e.Ops())
	}
	sp, ctx := e.opts.Obs.StartSpan(ctx, "engine.compute")
	sp.Str("op", p.Op)
	start := time.Now()
	body, err := fn(ctx, e, p)
	e.mLatency.Observe(time.Since(start))
	sp.Bool("ok", err == nil).End()
	e.mComputes.Inc()
	if err != nil {
		e.mErrors.Inc()
		return nil, err
	}
	return body, nil
}

// Run is the single-call entry point: Prepare then Compute.
func (e *Engine) Run(ctx context.Context, req Request) (*Response, error) {
	p, err := e.Prepare(req)
	if err != nil {
		return nil, err
	}
	return e.respond(ctx, p)
}

// respond computes a prepared request into its Response.
func (e *Engine) respond(ctx context.Context, p *Prepared) (*Response, error) {
	body, err := e.Compute(ctx, p)
	if err != nil {
		return nil, err
	}
	return &Response{Op: p.Op, Hash: p.Hash, Body: body}, nil
}
