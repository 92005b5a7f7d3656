// Package server is the scenario-evaluation service behind the
// closnetd daemon: an HTTP JSON API (stdlib net/http only) that accepts
// codec.Scenario payloads and serves max-min fair allocations
// (POST /v1/evaluate), exhaustive routing search (POST /v1/search),
// Doom-Switch routing (POST /v1/doom) and batched sweeps over all of
// them (POST /v1/batch), plus /healthz, /readyz and /v1/stats.
//
// The handlers are thin transport adapters over internal/engine — they
// decode, consult the serving layers below, call the engine's op
// registry, and reply. What the server adds on top of the engine is
// the serving core, three cooperating layers every op shares:
//
//   - a content-addressed result cache: scenarios are canonicalized and
//     hashed (codec.Canonical + codec.Hash) and finished response
//     bodies are stored in a size-bounded LRU, so a repeated instance
//     returns in microseconds with bytes identical to a cold run;
//   - singleflight coalescing: N concurrent requests for the same
//     content address trigger exactly one computation, whose bytes are
//     shared with every waiter;
//   - admission control: a bounded worker pool and a bounded wait
//     queue, with fast 429 + Retry-After rejection when both are full,
//     and a per-request deadline that propagates context.Context
//     cancellation into every compute path (search enumeration, water
//     filling, Doom-Switch) so abandoned requests stop burning cores.
//
// Batch requests participate per item: each /v1/batch item runs
// through the same cache, flight group and admission gate as a single
// call, so a batch response is exactly the concatenation of the N
// single-call bodies, in request order.
//
// Determinism: every computation runs on the canonical form of the
// scenario, so all semantically equal requests — any flow order, any
// rate-string spelling — produce one canonical response body, computed
// once and replayed byte-identically from the cache or the flight
// group. All rate arithmetic stays exact; no floats cross the API.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/obs"
)

// Defaults for Options fields left zero.
const (
	DefaultQueueDepth    = 64
	DefaultCacheSize     = 1024
	DefaultTimeout       = 30 * time.Second
	DefaultMaxBody       = 1 << 20
	DefaultMaxBatchItems = 256
)

// Options configures a Server.
type Options struct {
	// Workers bounds the number of concurrently computing requests
	// (0 = one per available core). This is the serving-layer pool the
	// admission controller guards; /v1/batch fan-out is bounded by it
	// too.
	Workers int
	// QueueDepth bounds how many admitted-but-waiting requests may
	// block for a worker slot (0 = DefaultQueueDepth, negative = no
	// queue: reject the moment the pool is full).
	QueueDepth int
	// CacheSize bounds the result cache in entries (0 =
	// DefaultCacheSize, negative = caching disabled — the cold-path
	// configuration).
	CacheSize int
	// Timeout is the per-request compute deadline (0 = DefaultTimeout,
	// negative = none). A coalesced computation is bounded by it from
	// the moment its leader queues for admission, and keeps running when
	// the leader's client disconnects, since its followers still want
	// the result; a follower waits at most Timeout. Session requests
	// are bounded after admission and stop when their client goes.
	// Batch items are bounded individually, like the single calls they
	// mirror. Reading a request body is bounded by Timeout too: a body
	// still arriving after it gets a 408.
	Timeout time.Duration
	// SearchWorkers is the enumeration worker count each search op uses
	// (0 = 1, the serving default: parallelism comes from serving many
	// requests, and results are bit-identical for every setting anyway).
	SearchWorkers int
	// MaxStates caps each search enumeration
	// (0 = search.DefaultMaxStates).
	MaxStates int
	// MaxBody bounds request bodies in bytes (0 = DefaultMaxBody).
	MaxBody int64
	// MaxBatchItems bounds how many items one /v1/batch request may
	// carry (0 = DefaultMaxBatchItems).
	MaxBatchItems int
	// MaxSessions bounds the /v1/session table
	// (0 = engine.DefaultMaxSessions).
	MaxSessions int
	// SessionTTL is the idle lifetime of a session before lazy eviction
	// (0 = engine.DefaultSessionTTL).
	SessionTTL time.Duration
	// Obs attaches the observability layer: request/cache/coalesce/
	// reject counters, a request latency timer, and a journal for every
	// request's spans. nil creates a private registry so /v1/stats
	// always reports.
	Obs *obs.Obs
}

// withDefaults validates opts and resolves every zero field to its
// default and every negative "disable" sentinel to its resolved form.
// It is the one defaulting point of the package — after New, s.opts
// holds only resolved values, so no call site re-derives a default.
func (o Options) withDefaults() (Options, error) {
	if o.Workers < 0 {
		return o, fmt.Errorf("server: negative Workers %d", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = DefaultQueueDepth
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	switch {
	case o.CacheSize == 0:
		o.CacheSize = DefaultCacheSize
	case o.CacheSize < 0:
		o.CacheSize = 0
	}
	switch {
	case o.Timeout == 0:
		o.Timeout = DefaultTimeout
	case o.Timeout < 0:
		o.Timeout = 0
	}
	if o.SearchWorkers <= 0 {
		o.SearchWorkers = 1
	}
	if o.MaxStates < 0 {
		return o, fmt.Errorf("server: negative MaxStates %d", o.MaxStates)
	}
	if o.MaxBody <= 0 {
		o.MaxBody = DefaultMaxBody
	}
	if o.MaxSessions < 0 {
		return o, fmt.Errorf("server: negative MaxSessions %d", o.MaxSessions)
	}
	if o.SessionTTL < 0 {
		return o, fmt.Errorf("server: negative SessionTTL %v", o.SessionTTL)
	}
	switch {
	case o.MaxBatchItems == 0:
		o.MaxBatchItems = DefaultMaxBatchItems
	case o.MaxBatchItems < 0:
		return o, fmt.Errorf("server: negative MaxBatchItems %d", o.MaxBatchItems)
	}
	if o.Obs.Registry() == nil {
		// /v1/stats always reports, even when the daemon runs without
		// -metrics; a journal is only attached when the caller brings one.
		o.Obs = &obs.Obs{Reg: obs.NewRegistry(), J: o.Obs.Journal()}
	}
	return o, nil
}

// Server is the scenario-evaluation service. Create with New, expose
// via Handler, stop with Drain.
type Server struct {
	opts    Options // resolved: withDefaults already applied
	eng     *engine.Engine
	mux     *http.ServeMux
	cache   *resultCache
	flight  *flightGroup
	admit   *admitter
	obs     *obs.Obs
	flights *flightRecorder
	start   time.Time

	// mu guards the drain state. An RWMutex held across requests would
	// be simpler, but a waiting writer blocks new readers, which would
	// stall the fast 503 we owe post-drain arrivals — so the in-flight
	// barrier is an explicit counter plus a close-once channel.
	mu       sync.Mutex
	draining bool
	inflight int
	drained  chan struct{}

	mRequests   *obs.Counter
	mHits       *obs.Counter
	mMisses     *obs.Counter
	mCoalesced  *obs.Counter
	mRejects    *obs.Counter
	mErrors     *obs.Counter
	mBatchItems *obs.Counter
	mLatency    *obs.Timer

	// computeStarted, when non-nil, runs on the flight leader after
	// admission and before the computation, with the leader's request
	// context — a test hook for making coalescing, drain and
	// disconnect scenarios deterministic.
	computeStarted func(reqCtx context.Context, op string)
}

// New builds a Server from opts.
func New(opts Options) (*Server, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := o.Obs.Registry()
	s := &Server{
		opts: o,
		eng: engine.New(engine.Options{
			SearchWorkers: o.SearchWorkers,
			MaxStates:     o.MaxStates,
			MaxSessions:   o.MaxSessions,
			SessionTTL:    o.SessionTTL,
			Obs:           o.Obs,
		}),
		mux:         http.NewServeMux(),
		drained:     make(chan struct{}),
		cache:       newResultCache(o.CacheSize),
		flight:      newFlightGroup(),
		admit:       newAdmitter(o.Workers, o.QueueDepth),
		obs:         o.Obs,
		flights:     newFlightRecorder(),
		start:       time.Now(),
		mRequests:   reg.Counter("server.requests"),
		mHits:       reg.Counter("server.cache.hits"),
		mMisses:     reg.Counter("server.cache.misses"),
		mCoalesced:  reg.Counter("server.coalesced"),
		mRejects:    reg.Counter("server.rejects"),
		mErrors:     reg.Counter("server.errors"),
		mBatchItems: reg.Counter("server.batch.items"),
		mLatency:    reg.Timer("server.latency"),
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/v1/evaluate", s.handleCompute("evaluate"))
	s.mux.HandleFunc("/v1/search", s.handleCompute("search"))
	s.mux.HandleFunc("/v1/doom", s.handleCompute("doom"))
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/session", s.handleSessionOpen)
	s.mux.HandleFunc("/v1/session/", s.handleSession)
	return s, nil
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// the per-request tracing middleware (traceRequests), so every response
// carries X-Closnet-Request-Id and every /v1/* request lands in the
// flight recorder.
func (s *Server) Handler() http.Handler { return s.traceRequests(s.mux) }

// statusWriter captures the response status for the middleware; the
// implicit 200 of a bare Write is the zero-config default. op names the
// engine operation the request addressed, for the flight recorder: the
// bare endpoint unless the handler resolved an op (setOp).
type statusWriter struct {
	http.ResponseWriter
	status int
	op     string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the connection's writer to http.ResponseController,
// which readBody's read deadline goes through.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// setOp records the op a handler resolved for the request w answers.
func setOp(w http.ResponseWriter, op string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.op = op
	}
}

// traceRequests is the request-scoped observability middleware: it
// opens one obs.Trace per request, echoes the trace ID as the
// X-Closnet-Request-Id response header (set before the handler runs, so
// even a panic-free early error reply carries it), roots a
// server.request span that the serving pipeline and the engine hang
// child spans from via the request context, and — for the /v1/* API
// surface — records the finished request into the flight recorder
// behind GET /v1/debug/requests. The root ends with the request's op,
// cache state and status. Spans reach the journal as they complete;
// with no journal attached they still feed the recorder.
// The trace stores its spans in a log the recorder no longer holds, and
// the recorder keeps the finished log, so a request allocates no span
// storage once the ring has filled.
func (s *Server) traceRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(s.obs.Journal(), s.flights.spanLog())
		w.Header().Set("X-Closnet-Request-Id", tr.ID())
		root, ctx := tr.Start(r.Context(), "server.request")
		root.Str("method", r.Method).Str("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, op: strings.TrimPrefix(r.URL.Path, "/v1/")}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		cache := w.Header().Get("X-Closnet-Cache")
		root.Str("op", sw.op).Str("cache", cache).Int("status", sw.status).End()
		spans := tr.Finish()
		if !strings.HasPrefix(r.URL.Path, "/v1/") || r.URL.Path == "/v1/debug/requests" {
			s.flights.recycle(spans)
			return
		}
		s.flights.record(flightEntry{
			ID:     tr.ID(),
			Time:   start.UTC(),
			Method: r.Method,
			Path:   r.URL.Path,
			Op:     sw.op,
			Status: sw.status,
			Cache:  cache,
			DurNs:  time.Since(start).Nanoseconds(),
			spans:  spans,
		})
	})
}

// Engine returns the compute engine the handlers dispatch through.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Drain gracefully stops the service: new compute requests are refused
// with 503 while every in-flight request runs to completion. It returns
// when the last in-flight request finished, or ctx.Err() if ctx expires
// first (in-flight requests then still complete in the background;
// their per-request deadlines bound how long that takes). The drain is
// the server.drain span, under ctx's span or the root of a trace on the
// journal.
func (s *Server) Drain(ctx context.Context) error {
	sp, ctx := s.obs.StartSpan(ctx, "server.drain")
	defer sp.End()
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.closeDrainedLocked()
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// beginRequest admits one compute request past the drain gate; a false
// return means the server is draining and the request gets a fast 503.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) endRequest() {
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		s.closeDrainedLocked()
	}
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// closeDrainedLocked closes the drain barrier exactly once; callers
// hold s.mu.
func (s *Server) closeDrainedLocked() {
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves GET /metrics: the full registry in the
// Prometheus text exposition format (obs.WritePrometheus) — every
// counter, gauge, timer and histogram the process registered, no
// scrape-side configuration needed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.obs.Registry())
}

// handleDebugRequests serves GET /v1/debug/requests: the flight
// recorder's last flightRingSize requests, newest first, each with its
// trace ID, outcome and completed span tree — the "what just happened"
// endpoint for debugging a live daemon.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Requests []flightEntry `json:"requests"`
	}{s.flights.entries()})
}

// statsResponse is the /v1/stats schema.
type statsResponse struct {
	UptimeMs int64    `json:"uptime_ms"`
	Draining bool     `json:"draining"`
	Ops      []string `json:"ops"`
	Cache    struct {
		Entries  int `json:"entries"`
		Aliases  int `json:"aliases"`
		Capacity int `json:"capacity"`
	} `json:"cache"`
	Admission struct {
		Workers    int   `json:"workers"`
		QueueDepth int   `json:"queue_depth"`
		InFlight   int   `json:"in_flight"`
		Queued     int64 `json:"queued"`
	} `json:"admission"`
	Sessions engine.SessionStats `json:"sessions"`
	Metrics  obs.Snapshot        `json:"metrics"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.UptimeMs = time.Since(s.start).Milliseconds()
	resp.Draining = s.isDraining()
	resp.Ops = s.eng.Ops()
	resp.Cache.Entries = s.cache.len()
	resp.Cache.Aliases = s.cache.aliasLen()
	resp.Cache.Capacity = s.opts.CacheSize
	resp.Admission.Workers = s.opts.Workers
	resp.Admission.QueueDepth = s.opts.QueueDepth
	resp.Admission.InFlight = s.admit.inFlight()
	resp.Admission.Queued = s.admit.queued()
	resp.Sessions = s.eng.Sessions().Stats()
	resp.Metrics = s.obs.Registry().Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleCompute wraps one compute endpoint with the full serving
// pipeline: drain gate → decode → canonicalize/hash → cache →
// singleflight → admission → deadline-bounded engine compute → cache
// fill.
func (s *Server) handleCompute(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The flight recorder names a request by its resolved op even
		// when the method or the drain gate refuses it; a malformed
		// query keeps the bare endpoint.
		op, opErr := resolveOp(endpoint, r)
		if opErr == nil {
			setOp(w, op)
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.reply(w, http.StatusMethodNotAllowed, codec.ErrorBody("POST only"), "", start)
			return
		}
		if !s.beginRequest() {
			s.reply(w, http.StatusServiceUnavailable, codec.ErrorBody("draining"), "", start)
			return
		}
		defer s.endRequest()

		if opErr != nil {
			s.reply(w, http.StatusBadRequest, codec.ErrorBody(opErr.Error()), "", start)
			return
		}
		body, releaseBody, err := s.readBody(w, r)
		if err != nil {
			status, msg := bodyError(err)
			s.reply(w, status, msg, "", start)
			return
		}
		defer releaseBody()
		// Request-identity fast path: a byte-identical replay of an
		// already-answered request needs no JSON decoding at all.
		rawKey := cacheKey{op: "raw:" + op, hash: sha256.Sum256(body)}
		if cached, ok := s.cache.get(rawKey); ok {
			s.mHits.Inc()
			s.reply(w, http.StatusOK, cached, "hit", start)
			return
		}

		dsp := obs.Start(r.Context(), "server.decode")
		scen, err := codec.Decode(body)
		dsp.Bool("ok", err == nil).End()
		if err != nil {
			s.reply(w, http.StatusBadRequest, codec.ErrorBody(err.Error()), "", start)
			return
		}
		psp := obs.Start(r.Context(), "engine.prepare")
		p, err := s.eng.Prepare(engine.Request{Op: op, Scenario: scen})
		psp.Bool("ok", err == nil).End()
		if err != nil {
			s.reply(w, http.StatusBadRequest, codec.ErrorBody(err.Error()), "", start)
			return
		}

		status, respBody, cacheState := s.serveOp(r.Context(), p)
		if status == http.StatusOK && cacheState != "coalesced" {
			// The raw key aliases the canonical entry serveOp installed:
			// it shares that entry's body and LRU slot instead of
			// consuming a second one (see resultCache.putAlias).
			s.cache.putAlias(rawKey, cacheKey{op: p.Op, hash: p.Hash}, respBody)
		}
		s.reply(w, status, respBody, cacheState, start)
	}
}

// serveOp runs one prepared operation through the serving core — result
// cache, singleflight, admission, deadline-bounded engine compute — and
// returns the HTTP-shaped outcome. It is the shared per-item path of
// the single-op handlers and /v1/batch, which is what makes a batch
// item behave exactly like the single call it mirrors. cacheState is
// "hit", "miss", "coalesced" or "" (follower whose wait was cut short).
func (s *Server) serveOp(ctx context.Context, p *engine.Prepared) (status int, body []byte, cacheState string) {
	key := cacheKey{op: p.Op, hash: p.Hash}
	csp := obs.Start(ctx, "server.cache")
	cached, ok := s.cache.get(key)
	if ok {
		csp.Str("state", "hit").End()
		s.mHits.Inc()
		return http.StatusOK, cached, "hit"
	}
	csp.Str("state", "miss").End()
	s.mMisses.Inc()

	call, leader := s.flight.join(key)
	if !leader {
		s.mCoalesced.Inc()
		// A follower waits no longer than the server deadline, even when
		// its client set none.
		wctx, cancel := s.withTimeout(ctx)
		defer cancel()
		wsp := obs.Start(wctx, "server.coalesce_wait")
		respBody, status, err := call.wait(wctx)
		wsp.Bool("ok", err == nil).End()
		if err != nil {
			status, respBody = mapComputeError(err)
			return status, respBody, ""
		}
		return status, respBody, "coalesced"
	}
	status, body = s.lead(ctx, call, key, p)
	return status, body, "miss"
}

// lead runs the leader's side of a flight: admission, deadline-bounded
// compute, cache fill, flight publication. It always finishes the
// flight — including on rejection and error — so followers never block
// past the leader's exit; a leader's 429 is shared with its followers,
// which is exactly the load-shedding semantics we want (the work they
// were waiting for is not going to happen). A panicking compute is
// recovered into a 500 that finishes the flight; the admission slot is
// released by its deferred release either way. The flight serves every
// follower, not just the leader's client, so it runs detached from the
// leader's cancellation (a disconnecting leader does not fail the
// followers), bounded by the server deadline.
func (s *Server) lead(reqCtx context.Context, call *flightCall, key cacheKey, p *engine.Prepared) (status int, body []byte) {
	ctx, cancel := s.withTimeout(context.WithoutCancel(reqCtx))
	defer cancel()
	asp := obs.Start(ctx, "server.admit")
	err := s.admit.acquire(ctx)
	asp.Bool("ok", err == nil).End()
	if err != nil {
		if errors.Is(err, errSaturated) {
			s.mRejects.Inc()
			status, body = http.StatusTooManyRequests, codec.ErrorBody("server saturated; retry later")
		} else {
			status, body = http.StatusServiceUnavailable, codec.ErrorBody(err.Error())
		}
		s.flight.finish(key, call, body, status, nil)
		return status, body
	}
	defer s.admit.release()
	defer func() {
		if r := recover(); r != nil {
			status, body = http.StatusInternalServerError, codec.ErrorBody(fmt.Sprintf("internal error: compute panicked: %v", r))
			s.flight.finish(key, call, body, status, nil)
		}
	}()
	if s.computeStarted != nil {
		s.computeStarted(reqCtx, p.Op)
	}
	body, err = s.eng.Compute(ctx, p)
	status = http.StatusOK
	if err != nil {
		status, body = mapComputeError(err)
	} else {
		s.cache.put(key, body)
	}
	s.flight.finish(key, call, body, status, nil)
	return status, body
}

// withTimeout bounds ctx by the server's compute deadline, if any.
func (s *Server) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if t := s.opts.Timeout; t > 0 {
		return context.WithTimeout(ctx, t)
	}
	return ctx, func() {}
}

// mapComputeError maps a computation failure to its HTTP shape:
// deadline → 504, client-gone → 503, resource caps and semantic
// scenario problems → 422 (the request was well-formed JSON — that was
// already settled at decode time — but this instance cannot be served).
func mapComputeError(err error) (int, []byte) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codec.ErrorBody("compute deadline exceeded")
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, codec.ErrorBody("request cancelled")
	}
	return http.StatusUnprocessableEntity, codec.ErrorBody(err.Error())
}

// statusError carries a per-item HTTP outcome through engine.RunBatch,
// whose error slots are how a batch item reports failure without
// stopping its siblings.
type statusError struct {
	status int
	body   []byte
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d", e.status) }

// handleBatch is the POST /v1/batch transport adapter: decode the
// envelope ({"op": default, "items": [{"op": ..., "scenario": ...}]})
// and its items in one pass (codec.DecodeBatch), prepare the items in
// order (engine.PrepareBatch), fan them out through engine.RunBatch with
// each item routed through the same cache → singleflight → admission
// pipeline as a single call, and concatenate the bodies in request
// order — exactly the bytes N single calls would have returned. An item
// without an op inherits the envelope default.
// All items succeeded → 200; otherwise 207 with the failing slots
// carrying the single-call error body they would have gotten alone, and
// the X-Closnet-Batch-Errors header counting them.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.reply(w, http.StatusMethodNotAllowed, codec.ErrorBody("POST only"), "", start)
		return
	}
	if !s.beginRequest() {
		s.reply(w, http.StatusServiceUnavailable, codec.ErrorBody("draining"), "", start)
		return
	}
	defer s.endRequest()

	body, releaseBody, err := s.readBody(w, r)
	if err != nil {
		status, msg := bodyError(err)
		s.reply(w, status, msg, "", start)
		return
	}
	defer releaseBody()
	dsp := obs.Start(r.Context(), "server.decode")
	breq, err := codec.DecodeBatch(body)
	dsp.Bool("ok", err == nil).End()
	if err != nil {
		s.reply(w, http.StatusBadRequest, codec.ErrorBody(err.Error()), "", start)
		return
	}
	if len(breq.Items) == 0 {
		s.reply(w, http.StatusBadRequest, codec.ErrorBody("empty batch: no items"), "", start)
		return
	}
	if len(breq.Items) > s.opts.MaxBatchItems {
		msg := fmt.Sprintf("batch of %d items exceeds the %d-item limit", len(breq.Items), s.opts.MaxBatchItems)
		s.reply(w, http.StatusRequestEntityTooLarge, codec.ErrorBody(msg), "", start)
		return
	}
	if breq.Op == "" {
		breq.Op = "evaluate"
	}

	// The items are prepared in request order before the fan-out, so an
	// item that repeats the previous one's traffic matrix reuses its
	// canonical prefix. An item that failed to decode or to prepare fails
	// its own slot, exactly as the single call would have failed with
	// 400.
	reqs := make([]engine.Request, len(breq.Items))
	for i, it := range breq.Items {
		op := it.Op
		if op == "" {
			op = breq.Op
		}
		reqs[i] = engine.Request{Op: op, Scenario: it.Scenario}
	}
	psp := obs.Start(r.Context(), "engine.prepare")
	preps, errs := s.eng.PrepareBatch(reqs)
	psp.End()

	run := func(ctx context.Context, i int, _ engine.Request) (*engine.Response, error) {
		err := breq.Items[i].Err
		if err == nil {
			err = errs[i]
		}
		if err != nil {
			return nil, &statusError{http.StatusBadRequest, codec.ErrorBody(err.Error())}
		}
		p := preps[i]
		status, respBody, _ := s.serveOp(ctx, p)
		if status != http.StatusOK {
			return nil, &statusError{status, respBody}
		}
		return &engine.Response{Op: p.Op, Hash: p.Hash, Body: respBody}, nil
	}
	results := s.eng.RunBatch(r.Context(), reqs, s.opts.Workers, run)
	s.mBatchItems.Add(int64(len(results)))

	// The response is the item bodies back to back, copied into one
	// buffer of their total size.
	bodies := make([][]byte, len(results))
	failed, size := 0, 0
	for i, res := range results {
		if res.Err == nil {
			bodies[i] = res.Resp.Body
		} else {
			failed++
			var se *statusError
			if errors.As(res.Err, &se) {
				bodies[i] = se.body
			} else {
				bodies[i] = codec.ErrorBody(res.Err.Error())
			}
		}
		size += len(bodies[i])
	}
	out := make([]byte, 0, size)
	for _, b := range bodies {
		out = append(out, b...)
	}
	status := http.StatusOK
	if failed > 0 {
		status = http.StatusMultiStatus
		w.Header().Set("X-Closnet-Batch-Errors", strconv.Itoa(failed))
	}
	w.Header().Set("X-Closnet-Batch-Items", strconv.Itoa(len(results)))
	s.reply(w, status, out, "", start)
}

// bodyPool recycles request-body buffers: on the cache-hit fast path
// the body is only hashed and compared, never retained (json.Unmarshal
// copies every string it keeps), so per-request buffer allocation is
// pure overhead. Stored as *[]byte to keep the pool pointer-shaped.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// readBody reads the full request body into a pooled buffer, bounded
// in size by MaxBody and in time by Timeout: a client that sent its
// headers and then dribbles its body would otherwise hold the handler,
// and the drain gate, for as long as it liked. The read deadline must
// not outlive the body: net/http's background read of the connection
// would time out mid-compute and cancel the request context. net/http
// clears the deadline itself when the body reaches EOF and that read
// starts, but a request without a body has it running before the
// handler sets one, so readBody clears the deadline after a complete
// read as well. The returned slice is valid until release is called —
// callers must not retain it past the request.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, release func(), err error) {
	// A writer without a connection (an in-process recorder) has no
	// deadline to set. On a failed read the deadline stays, so net/http
	// does not wait on the rest of the body before replying.
	var rc *http.ResponseController
	if t := s.opts.Timeout; t > 0 {
		if rc = http.NewResponseController(w); rc.SetReadDeadline(time.Now().Add(t)) != nil {
			rc = nil
		}
	}
	buf := bodyPool.Get().(*[]byte)
	release = func() { *buf = (*buf)[:0]; bodyPool.Put(buf) }
	lr := http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	b := *buf
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, rerr := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if rerr == io.EOF {
			*buf = b
			if rc != nil {
				rc.SetReadDeadline(time.Time{})
			}
			return b, release, nil
		}
		if rerr != nil {
			*buf = b
			release()
			return nil, func() {}, rerr
		}
	}
}

// bodyError maps a failed body read to its HTTP shape: 413 past
// MaxBody, 408 past the read deadline, 400 for anything else (a reset
// or truncated body).
func bodyError(err error) (int, []byte) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, codec.ErrorBody("request body too large")
	case errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout, codec.ErrorBody("request body read timed out")
	}
	return http.StatusBadRequest, codec.ErrorBody("reading request body: " + err.Error())
}

// resolveOp maps an endpoint plus its result-shaping query parameters
// to the engine op name (which doubles as the cache-key operation
// string).
func resolveOp(endpoint string, r *http.Request) (string, error) {
	if endpoint != "search" {
		return endpoint, nil
	}
	query := r.URL.Query()
	objective := query.Get("objective")
	if objective == "" {
		objective = "lex"
	}
	switch objective {
	case "lex", "throughput", "relative":
	default:
		return "", fmt.Errorf("unknown objective %q (lex, throughput, relative)", objective)
	}
	op := "search:" + objective
	switch strategy := query.Get("strategy"); strategy {
	case "", "exhaustive":
	case "pruned":
		if objective == "relative" {
			return "", fmt.Errorf("objective %q has no pruned strategy", objective)
		}
		op += ":pruned"
	default:
		return "", fmt.Errorf("unknown strategy %q (exhaustive, pruned)", strategy)
	}
	return op, nil
}

// reply writes one response and records it in the request counter and
// the latency timer. cacheState is "hit", "miss", "coalesced" or ""
// (no cache interaction).
func (s *Server) reply(w http.ResponseWriter, status int, body []byte, cacheState string, start time.Time) {
	s.mRequests.Inc()
	if status >= 500 || status == http.StatusBadRequest {
		s.mErrors.Inc()
	}
	s.mLatency.Observe(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	if cacheState != "" {
		w.Header().Set("X-Closnet-Cache", cacheState)
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	w.Write(body)
}
