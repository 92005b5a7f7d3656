package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/server"
	"closnet/internal/stats"
)

// gate holds every response the server must produce, computed in-process
// with engine.Run before any timing starts.
type gate struct {
	digests [][32]byte  // per request: SHA-256 of the expected body
	ends    []stateView // per session cycle: the evaluate view of its end state
}

// stateView is the part of a session delta response that must equal a
// one-shot evaluate of the same state.
type stateView struct {
	Hash  string   `json:"hash"`
	Rates []string `json:"rates"`
}

func (v stateView) equal(o stateView) bool { return v.Hash == o.Hash && slices.Equal(v.Rates, o.Rates) }

// newGate runs every distinct input through engine.Run with the server's
// engine options (SearchWorkers 1). A batch body's expected response is
// the concatenation of its items' single-call bodies.
func newGate(in *inputs) (*gate, error) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	g := &gate{digests: make([][32]byte, len(in.reqs)), ends: make([]stateView, len(in.cycles))}
	err := parallel(in.size(), func(i int) error {
		if i < len(in.reqs) {
			r := &in.reqs[i]
			scens := r.items
			if scens == nil {
				scens = [][]byte{r.body}
			}
			h := sha256.New()
			for _, b := range scens {
				s, err := codec.Decode(b)
				if err != nil {
					return err
				}
				body, err := runScenario(eng, r.op, s)
				if err != nil {
					return err
				}
				h.Write(body)
			}
			h.Sum(g.digests[i][:0])
			return nil
		}
		i -= len(in.reqs)
		body, err := runScenario(eng, engine.OpEvaluate, in.cycles[i].end)
		if err != nil {
			return err
		}
		return json.Unmarshal(body, &g.ends[i])
	})
	return g, err
}

func runScenario(eng *engine.Engine, op string, s *codec.Scenario) ([]byte, error) {
	resp, err := eng.Run(context.Background(), engine.Request{Op: op, Scenario: s})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// parallel calls f(0..n-1) from one goroutine per CPU and returns every
// error.
func parallel(n int, f func(i int) error) error {
	workers := min(runtime.NumCPU(), n)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if errs[w] = f(i); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// liveServer is a closnetd server with default options behind a
// loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

func startServer() (*liveServer, error) {
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		// Serve returns http.ErrServerClosed on close; any other failure
		// shows up as failed requests.
		_ = ls.hs.Serve(ln)
	}()
	return ls, nil
}

func (ls *liveServer) close() {
	ls.hs.Close()
	<-ls.done
}

// tally accumulates one connection's outcomes.
type tally struct {
	lat       []time.Duration // successful timed requests
	attempted int64
	failed    int64
}

// count records an untimed attempt.
func (t *tally) count(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// record records a timed request; only successes carry a latency.
func (t *tally) record(ok bool, d time.Duration) {
	t.count(ok)
	if ok {
		t.lat = append(t.lat, d)
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.attempted += o.attempted
	t.failed += o.failed
}

// conn is one closed-loop client: a single keep-alive connection, a
// reused response buffer and its tally.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
	tally
}

func newConn(timeout time.Duration) *conn {
	return &conn{c: &http.Client{Timeout: timeout, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// post sends one request and reads the response into cn.buf; it reports
// whether the server answered 200.
func (cn *conn) post(ctx context.Context, url string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cn.c.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	cn.buf.Reset()
	_, err = cn.buf.ReadFrom(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK
}

// request sends one stateless request and checks the body's digest.
func (cn *conn) request(ctx context.Context, base string, r *request, want [32]byte) {
	t0 := time.Now()
	ok := cn.post(ctx, base+r.path, r.body) && sha256.Sum256(cn.buf.Bytes()) == want
	cn.record(ok, time.Since(t0))
}

// session runs one cycle: open, deltas until end (zero: all of them),
// close. Deltas are the timed requests; open and close count as attempts
// only. A completed cycle's last response must equal the evaluate view
// of its end state, or that delta counts as failed.
func (cn *conn) session(ctx context.Context, base string, cy *cycle, want stateView, end time.Time) {
	ok := cn.post(ctx, base+"/v1/session", cy.open)
	cn.count(ok)
	if !ok {
		return
	}
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(cn.buf.Bytes(), &opened); err != nil || opened.Session == "" {
		cn.failed++
		return
	}
	url := base + "/v1/session/" + opened.Session
	complete := true
	for _, body := range cy.bodies {
		if !end.IsZero() && !time.Now().Before(end) {
			complete = false
			break
		}
		t0 := time.Now()
		ok := cn.post(ctx, url+"/delta", body)
		cn.record(ok, time.Since(t0))
		if !ok {
			complete = false
			break
		}
	}
	if complete {
		var got stateView
		if err := json.Unmarshal(cn.buf.Bytes(), &got); err != nil || !got.equal(want) {
			cn.lat = cn.lat[:len(cn.lat)-1]
			cn.failed++
		}
	}
	cn.count(cn.post(ctx, url+"/close", nil))
}

// warmups is the number of requests of the warm-up pass: the first
// min(working set, result-cache size) requests, or one session cycle.
func warmups(in *inputs) int {
	if in.cycles != nil {
		return 1
	}
	return min(len(in.reqs), server.DefaultCacheSize)
}

// setUp starts a server and runs the warm-up pass sequentially, which
// fills the result cache and the evaluator pool. The returned duration
// is the set-up time.
func setUp(in *inputs, g *gate) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	ls, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	cn := newConn(requestTimeout)
	defer cn.c.CloseIdleConnections()
	ctx := context.Background()
	for i := 0; i < warmups(in); i++ {
		if in.cycles != nil {
			cn.session(ctx, ls.base, &in.cycles[i], g.ends[i], time.Time{})
		} else {
			cn.request(ctx, ls.base, &in.reqs[i], g.digests[i])
		}
	}
	d := time.Since(t0)
	if cn.failed > 0 {
		ls.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed", cn.failed, cn.attempted)
	}
	return ls, d, nil
}

// Every request has a client timeout, and every timed window a hard
// deadline of window + deadlineSlack.
const (
	requestTimeout = 5 * time.Second
	deadlineSlack  = 10 * time.Second
)

// loop is a closed-loop load phase.
type loop struct {
	conns   int
	window  time.Duration
	timeout time.Duration // per request
	slack   time.Duration // hard deadline: window + slack
}

// run starts l.conns workers; each calls step back to back until the
// window closes. Every request carries a context cancelled at the hard
// deadline, so requests a hung server still holds then fail instead of
// stalling the run. It returns the merged tally and the phase's wall
// time.
func (l loop) run(step func(ctx context.Context, cn *conn, end time.Time)) (tally, time.Duration) {
	start := time.Now()
	end := start.Add(l.window)
	ctx, cancel := context.WithDeadline(context.Background(), end.Add(l.slack))
	defer cancel()
	conns := make([]*conn, l.conns)
	var wg sync.WaitGroup
	for i := range conns {
		cn := newConn(l.timeout)
		conns[i] = cn
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cn.c.CloseIdleConnections()
			for ctx.Err() == nil && time.Now().Before(end) {
				step(ctx, cn, end)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var t tally
	for _, cn := range conns {
		t.merge(&cn.tally)
	}
	return t, elapsed
}

// heapPeak samples runtime.MemStats.HeapInuse every 100 ms until stop
// is closed, then sends the peak.
func heapPeak(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		var peak uint64
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// procStats is the process-wide state the [process] metrics difference.
type procStats struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who or pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

// options configures one workload run.
type options struct {
	seed   int64
	window time.Duration
	setups int  // set-up repetitions; setup_s is their median
	trace  bool // run the layer pass
	// sample caps the inputs the layer pass replays per workload
	// (0: the defaults in layerSample).
	sample int
}

func defaultOptions(seed int64, window time.Duration, trace bool) options {
	return options{seed: seed, window: window, setups: 3, trace: trace}
}

// result is one workload run: the outcome counts and every metric.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Timed     int                `json:"timed_requests"`
	WindowS   float64            `json:"window_s"`
	SetupS    []float64          `json:"setup_s_samples"`
	EndToEnd  map[string]measure `json:"end_to_end"`
	PerLayer  map[string]measure `json:"per_layer,omitempty"`
	// LayerCalls is the number of calls behind each per-layer timing.
	LayerCalls map[string]int `json:"layer_calls,omitempty"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload generates a workload's inputs, computes its gate and
// measures it.
func runWorkload(name string, o options) (*result, error) {
	in, err := buildInputs(name, o.seed)
	if err != nil {
		return nil, err
	}
	g, err := newGate(in)
	if err != nil {
		return nil, fmt.Errorf("%s: correctness gate: %w", name, err)
	}
	return measureWorkload(name, in, g, o)
}

// measureWorkload sets the server up o.setups times, keeps the last one,
// and drives it for the timed window. Sessions use one connection:
// concurrent session traffic can deadlock the session table.
func measureWorkload(name string, in *inputs, g *gate, o options) (*result, error) {
	var live *liveServer
	setups := make([]float64, 0, o.setups)
	for r := 0; r < o.setups; r++ {
		if live != nil {
			live.close()
		}
		ls, d, err := setUp(in, g)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		live = ls
		setups = append(setups, d.Seconds())
	}
	defer live.close()

	l := loop{conns: min(2, runtime.NumCPU()), window: o.window, timeout: requestTimeout, slack: deadlineSlack}
	var next atomic.Int64
	first := warmups(in)
	step := func(ctx context.Context, cn *conn, _ time.Time) {
		k := (first + int(next.Add(1)-1)) % len(in.reqs)
		cn.request(ctx, live.base, &in.reqs[k], g.digests[k])
	}
	if in.cycles != nil {
		l.conns = 1
		step = func(ctx context.Context, cn *conn, end time.Time) {
			k := (first + int(next.Add(1)-1)) % len(in.cycles)
			cn.session(ctx, live.base, &in.cycles[k], g.ends[k], end)
		}
	}

	runtime.GC()
	reg := live.srv.Engine().Obs().Registry()
	c0, p0 := reg.Snapshot().Counters, readProc()
	stop := make(chan struct{})
	peak := heapPeak(stop)
	t, elapsed := l.run(step)
	close(stop)
	heap := <-peak
	c1, p1 := reg.Snapshot().Counters, readProc()

	if t.attempted == 0 || len(t.lat) == 0 {
		return nil, fmt.Errorf("%s: no successful request in the window (%d attempted)", name, t.attempted)
	}
	lat := make([]float64, len(t.lat))
	for i, d := range t.lat {
		lat[i] = float64(d.Nanoseconds()) / 1e6
	}
	latency := stats.Summarize(lat)
	res := &result{
		Workload:  name,
		Attempted: t.attempted,
		Failed:    t.failed,
		Timed:     len(t.lat),
		WindowS:   elapsed.Seconds(),
		SetupS:    setups,
		EndToEnd: withUnits(endToEnd, map[string]float64{
			"throughput_rps": float64(len(t.lat)) / elapsed.Seconds(),
			"latency_p50_ms": latency.P50,
			"latency_p99_ms": latency.P99,
			"error_rate":     float64(t.failed) / float64(t.attempted),
			"setup_s":        stats.Summarize(setups).P50,
			"heap_peak_mb":   float64(heap) / (1 << 20),
		}),
	}
	if !o.trace {
		return res, nil
	}

	diff := func(k string) float64 { return float64(c1[k] - c0[k]) }
	reqs := float64(t.attempted)
	layer := map[string]float64{
		"server.cache_hit_ratio":             ratio(diff("server.cache.hits"), diff("server.cache.hits")+diff("server.cache.misses")),
		"server.coalesced_ratio":             ratio(diff("server.coalesced"), diff("server.requests")),
		"server.rejects":                     diff("server.rejects"),
		"engine.evaluator_reuse_ratio":       ratio(diff("engine.evaluator_reuses"), diff("engine.evaluator_reuses")+diff("engine.evaluator_builds")),
		"core.block_promotions_ratio":        ratio(diff("core.block_promotions"), diff("core.block_fills")),
		"core.delta_levels_skipped_per_fill": ratio(diff("core.delta_levels_skipped"), diff("core.delta_fills")),
		"process.alloc_kb_per_req":           float64(p1.totalAlloc-p0.totalAlloc) / 1024 / reqs,
		"process.gc_per_1k_req":              float64(p1.numGC-p0.numGC) * 1000 / reqs,
		"process.cpu_util":                   (p1.cpu - p0.cpu).Seconds() / elapsed.Seconds(),
	}
	samples, err := layerPass(name, in, o)
	if err != nil {
		return nil, fmt.Errorf("%s: layer pass: %w", name, err)
	}
	res.LayerCalls = make(map[string]int, len(samples))
	for k, xs := range samples {
		res.LayerCalls[k] = len(xs)
	}
	for k, v := range samples.summarize() {
		layer[k] = v
	}
	for _, d := range perLayer {
		if _, ok := layer[d.name]; !ok {
			return nil, fmt.Errorf("%s: layer pass produced no %s", name, d.name)
		}
	}
	res.PerLayer = withUnits(perLayer, layer)
	return res, nil
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]measure {
	out := make(map[string]measure, len(defs))
	for _, d := range defs {
		out[d.name] = measure{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
