package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/obs"
)

// TestRequestIDHeader: every response out of the traced handler —
// success, client error, wrong method, non-/v1 path — carries a unique
// X-Closnet-Request-Id.
func TestRequestIDHeader(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	seen := map[string]bool{}
	check := func(resp *http.Response) {
		t.Helper()
		id := resp.Header.Get("X-Closnet-Request-Id")
		if len(id) != 8 {
			t.Errorf("%s %s: request ID %q, want 8 hex chars", resp.Request.Method, resp.Request.URL.Path, id)
		}
		if seen[id] {
			t.Errorf("request ID %q repeated", id)
		}
		seen[id] = true
	}

	resp, _ := post(t, ts.URL+"/v1/evaluate", scenarioBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	check(resp)

	resp, _ = post(t, ts.URL+"/v1/evaluate", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", resp.StatusCode)
	}
	check(resp)

	for _, path := range []string{"/v1/evaluate", "/healthz", "/v1/stats", "/metrics", "/v1/debug/requests"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		check(r)
	}
}

// TestMetricsEndpoint: GET /metrics serves a lintable Prometheus text
// exposition covering the serving metrics, after real traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	post(t, ts.URL+"/v1/evaluate", scenarioBody)
	post(t, ts.URL+"/v1/evaluate", scenarioBody) // raw-key cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"closnet_server_requests_total",
		"closnet_server_cache_hits_total 1",
		"# TYPE closnet_server_latency_seconds histogram",
		"closnet_server_latency_seconds_bucket{le=\"+Inf\"}",
		"closnet_engine_computes_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.LintExposition(strings.NewReader(out)); err != nil {
		t.Errorf("/metrics fails lint: %v\n%s", err, out)
	}

	if resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", resp.StatusCode)
	}
}

// debugEntry is one /v1/debug/requests entry as a client decodes it.
type debugEntry struct {
	ID     string `json:"id"`
	Time   string `json:"time"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Op     string `json:"op"`
	Status int    `json:"status"`
	Cache  string `json:"cache"`
	DurNs  int64  `json:"dur_ns"`
	Spans  []struct {
		ID     int64          `json:"id"`
		Parent int64          `json:"parent"`
		Name   string         `json:"name"`
		Attrs  map[string]any `json:"attrs"`
	} `json:"spans"`
	SpansDropped int `json:"spans_dropped"`
}

// debugRequests reads the flight recorder through h.
func debugRequests(h http.Handler) ([]debugEntry, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/requests", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("debug requests: status %d", rec.Code)
	}
	var out struct {
		Requests []debugEntry `json:"requests"`
	}
	err := json.Unmarshal(rec.Body.Bytes(), &out)
	return out.Requests, err
}

// TestDebugRequests: the flight recorder surfaces the recent requests
// newest-first with trace IDs matching the response headers, cache
// state, and the span tree of a computed request reaching the engine.
func TestDebugRequests(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{})
	respMiss, _ := post(t, ts.URL+"/v1/evaluate", scenarioBody)
	respHit, _ := post(t, ts.URL+"/v1/evaluate", scenarioBody)

	reqs, err := debugRequests(s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("recorded %d requests, want 2", len(reqs))
	}
	hit, miss := reqs[0], reqs[1] // newest first
	if hit.ID != respHit.Header.Get("X-Closnet-Request-Id") || miss.ID != respMiss.Header.Get("X-Closnet-Request-Id") {
		t.Errorf("recorder IDs %q/%q do not match response headers", hit.ID, miss.ID)
	}
	if miss.Cache != "miss" || hit.Cache != "hit" {
		t.Errorf("cache states %q/%q, want miss/hit", miss.Cache, hit.Cache)
	}
	if miss.Op != "evaluate" || miss.Status != http.StatusOK || miss.DurNs <= 0 {
		t.Errorf("miss entry %+v", miss)
	}
	names := map[string]bool{}
	for _, sp := range miss.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"server.request", "server.decode", "engine.prepare", "server.cache", "server.admit", "engine.compute", "core.block_fill"} {
		if !names[want] {
			t.Errorf("cold request trace lacks a %s span (have %v)", want, names)
		}
	}
	if len(hit.Spans) >= len(miss.Spans) {
		t.Errorf("raw-replay hit recorded %d spans, cold miss %d — hit should be shallower", len(hit.Spans), len(miss.Spans))
	}

	// The debug endpoint itself must not record, or reading the ring
	// would pollute it.
	reqs, err = debugRequests(s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Errorf("reading the recorder added entries: %d", len(reqs))
	}
}

// TestDebugRequestsOpAndTime: an entry names the op the handler
// resolved, also for a request refused before it reached the op, and
// the bare endpoint when the query is malformed; a session request
// names its engine op, never its session ID; the root span, which the
// journal writes, carries the same op; its time is the
// request's start in UTC, written as time.RFC3339Nano.
func TestDebugRequestsOpAndTime(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()
	for _, c := range []struct{ method, target, body, op string }{
		{http.MethodPost, "/v1/search?objective=throughput&strategy=pruned", scenarioBody, "search:throughput:pruned"},
		{http.MethodPost, "/v1/search?objective=bogus", scenarioBody, "search"},
		{http.MethodGet, "/v1/search?objective=relative", "", "search:relative"},
		{http.MethodPost, "/v1/search", "{", "search:lex"},
		{http.MethodPost, "/v1/doom", scenarioBody, "doom"},
		{http.MethodPost, "/v1/session", scenarioBody, engine.OpSessionOpen},
		{http.MethodPost, "/v1/session/0000/delta", "{}", engine.OpSessionDelta},
		{http.MethodDelete, "/v1/session/0000", "", engine.OpSessionClose},
		{http.MethodPost, "/v1/session/0000/bogus", "", "session"},
	} {
		before := time.Now().UTC()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
		reqs, err := debugRequests(h)
		if err != nil {
			t.Fatal(err)
		}
		if got := reqs[0].Op; got != c.op {
			t.Errorf("%s %s recorded op %q, want %q", c.method, c.target, got, c.op)
		}
		if root := reqs[0].Spans[len(reqs[0].Spans)-1]; root.Name != "server.request" || root.Attrs["op"] != c.op {
			t.Errorf("%s %s root span %s has op %v, want %q", c.method, c.target, root.Name, root.Attrs["op"], c.op)
		}
		at, err := time.Parse(time.RFC3339Nano, reqs[0].Time)
		if err != nil || at.Format(time.RFC3339Nano) != reqs[0].Time || at.Location() != time.UTC || at.Before(before.Truncate(time.Second)) {
			t.Errorf("%s %s recorded time %q (%v), want the start in UTC as RFC3339Nano", c.method, c.target, reqs[0].Time, err)
		}
	}
}

// TestDebugRequestsBatch: a /v1/batch entry in the flight recorder
// carries the spans of the envelope's decode and of the in-order
// prepare that runs before the fan-out, beside its items' cache
// lookups.
func TestDebugRequestsBatch(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{})
	sweep := sweepItems(t, [][]int{{1, 2, 3, 1, 2, 3}, {3, 3, 1, 2, 1, 1}})
	resp, body := post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", sweep...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}

	reqs, err := debugRequests(s.Handler())
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Op != "batch" {
		t.Fatalf("recorded %+v, want the one batch", reqs)
	}
	count := map[string]int{}
	for _, sp := range reqs[0].Spans {
		count[sp.Name]++
	}
	for name, want := range map[string]int{"server.decode": 1, "engine.prepare": 1, "server.cache": len(sweep)} {
		if count[name] != want {
			t.Errorf("batch trace has %d %s spans, want %d (have %v)", count[name], name, want, count)
		}
	}
}

// TestCappedBatchKeepsRoot: a full-size batch of evaluates ends more
// leaf spans than a trace stores, yet its flight entry keeps every span
// that parents others: it ends with its server.request root, which
// carries the path and the status, every span's parent is in the entry,
// and only leaves are counted as dropped.
func TestCappedBatchKeepsRoot(t *testing.T) {
	srv, err := New(Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	// Six distinct flows under distinct assignments: distinct scenarios,
	// so no item coalesces onto another's flight.
	s := codec.Scenario{
		Tors: 3, Servers: 2, Middles: 3,
		Flows: []codec.FlowJSON{
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1},
			{SrcSwitch: 1, SrcServer: 2, DstSwitch: 3, DstServer: 1},
			{SrcSwitch: 2, SrcServer: 1, DstSwitch: 3, DstServer: 2},
			{SrcSwitch: 2, SrcServer: 2, DstSwitch: 1, DstServer: 1},
			{SrcSwitch: 3, SrcServer: 1, DstSwitch: 1, DstServer: 2},
			{SrcSwitch: 3, SrcServer: 2, DstSwitch: 2, DstServer: 2},
		},
	}
	items := make([][]byte, DefaultMaxBatchItems)
	for i := range items {
		s.Assignment = make([]int, len(s.Flows))
		for f, p := 0, 1; f < len(s.Flows); f, p = f+1, 3*p {
			s.Assignment[f] = i/p%3 + 1
		}
		items[i] = mustMarshal(t, &s)
	}
	body := batchEnvelope(t, "evaluate", items...)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	reqs, err := debugRequests(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("recorded %d requests, want the one batch", len(reqs))
	}
	e := reqs[0]
	if e.SpansDropped == 0 {
		t.Errorf("a %d-item batch dropped no spans", DefaultMaxBatchItems)
	}
	last := e.Spans[len(e.Spans)-1]
	if last.Name != "server.request" || last.Parent != 0 || last.Attrs["path"] != "/v1/batch" || last.Attrs["status"] != float64(http.StatusOK) {
		t.Fatalf("the entry of %d spans (%d dropped) ends with %s (parent %d, attrs %v), want the server.request root",
			len(e.Spans), e.SpansDropped, last.Name, last.Parent, last.Attrs)
	}
	ids := map[int64]bool{}
	for _, sp := range e.Spans {
		ids[sp.ID] = true
	}
	computes := 0
	for _, sp := range e.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("%s span's parent %d is not in the entry", sp.Name, sp.Parent)
		}
		if sp.Name == "engine.compute" {
			computes++
		}
	}
	if computes != DefaultMaxBatchItems {
		t.Errorf("the entry keeps %d engine.compute spans, want one per item (%d)", computes, DefaultMaxBatchItems)
	}
}

// checkEntry reports what keeps a flight-recorder entry from being one
// whole request: it must have one server.request span, the root, ending
// last with the entry's path and status; every other span's parent in
// the entry; and only spans its op opens, with one decode, one prepare,
// a cache lookup per batch item and a search.run per computed search.
func checkEntry(e debugEntry, batchItems int) error {
	names := map[string]bool{
		"server.request": true, "server.decode": true, "engine.prepare": true, "server.cache": true,
		"server.admit": true, "server.coalesce_wait": true, "engine.compute": true, "core.block_fill": true,
	}
	switch {
	case strings.HasPrefix(e.Op, "search:"):
		names["search.run"], names["search.shard"], names["search.incumbent"] = true, true, true
	case e.Op == "batch":
		names["engine.batch"] = true
	}
	ids := map[int64]bool{}
	for _, sp := range e.Spans {
		if ids[sp.ID] {
			return fmt.Errorf("span ID %d repeats", sp.ID)
		}
		ids[sp.ID] = true
	}
	count := map[string]int{}
	for i, sp := range e.Spans {
		count[sp.Name]++
		if !names[sp.Name] {
			return fmt.Errorf("%s span in a %s entry", sp.Name, e.Op)
		}
		if root := i == len(e.Spans)-1; root != (sp.Parent == 0) || root != (sp.Name == "server.request") {
			return fmt.Errorf("span %d of %d is %s with parent %d", i, len(e.Spans), sp.Name, sp.Parent)
		}
		if sp.Parent != 0 && !ids[sp.Parent] {
			return fmt.Errorf("%s span's parent %d is not in the entry", sp.Name, sp.Parent)
		}
	}
	if len(e.Spans) == 0 || e.SpansDropped != 0 {
		return fmt.Errorf("%d spans, %d dropped", len(e.Spans), e.SpansDropped)
	}
	root := e.Spans[len(e.Spans)-1].Attrs
	if root["path"] != e.Path || root["status"] != float64(e.Status) || e.Status != http.StatusOK {
		return fmt.Errorf("root attrs %v in an entry for %s with status %d", root, e.Path, e.Status)
	}
	cache := 1
	if e.Op == "batch" {
		cache = batchItems
	}
	if count["server.decode"] != 1 || count["engine.prepare"] != 1 || count["server.cache"] != cache {
		return fmt.Errorf("span counts %v", count)
	}
	if names["search.run"] && count["search.run"] != count["engine.compute"] {
		return fmt.Errorf("%d search.run spans for %d computes", count["search.run"], count["engine.compute"])
	}
	return nil
}

// TestFlightRecorderConcurrent: batch, search and evaluate requests from
// several goroutines wrap the flight ring twice, so span logs pass from
// overwritten entries to new traces while other requests are still
// recording, and a reader copies the ring all the while. Every entry it
// reads must be one whole request (checkEntry).
func TestFlightRecorderConcurrent(t *testing.T) {
	s, _, _ := newTestServer(t, Options{CacheSize: -1, Workers: 2})
	h := s.Handler()
	sweep := sweepItems(t, [][]int{{1, 2, 3, 1, 2, 3}, {3, 3, 1, 2, 1, 1}})
	traffic := []struct{ target, body string }{
		{"/v1/batch", batchEnvelope(t, "evaluate", sweep...)},
		{"/v1/search?objective=lex", scenarioBody},
		{"/v1/search?objective=throughput&strategy=pruned", scenarioBody},
		{"/v1/evaluate", scenarioBody},
		{"/v1/evaluate", otherScenarioBody},
	}
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*flightRingSize/writers; i++ {
				c := traffic[(w+i)%len(traffic)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.target, strings.NewReader(c.body)))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", c.target, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(w)
	}
	read := make(chan int)
	go func() {
		reads := 0
		defer func() { read <- reads }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			reqs, err := debugRequests(h)
			if err != nil {
				t.Error(err)
				return
			}
			for _, e := range reqs {
				if err := checkEntry(e, len(sweep)); err != nil {
					t.Errorf("entry %s (%s): %v", e.ID, e.Op, err)
					return
				}
			}
			reads++
		}
	}()
	wg.Wait()
	close(stop)
	if reads := <-read; reads == 0 {
		t.Error("the reader never read the ring")
	}
	reqs, err := debugRequests(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != flightRingSize {
		t.Fatalf("ring holds %d entries, want %d", len(reqs), flightRingSize)
	}
	for _, e := range reqs {
		if err := checkEntry(e, len(sweep)); err != nil {
			t.Fatalf("entry %s (%s): %v", e.ID, e.Op, err)
		}
	}
}

// TestTracedBatchAllocs pins what one traced 32-item /v1/batch request
// allocates through Handler() with the result cache off, once the
// flight ring has filled and span logs are reused: its spans, their
// attributes and their storage allocate nothing but a context per
// engine.compute.
func TestTracedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released evaluators at random under -race")
	}
	srv, err := New(Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body := batchBenchBodies(t, 1, true)[0]
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for i := 0; i < flightRingSize; i++ {
		serve()
	}
	if allocs := testing.AllocsPerRun(20, serve); allocs > tracedBatchAllocs {
		t.Errorf("a traced 32-item batch allocates %.0f objects, want at most %d", allocs, tracedBatchAllocs)
	}
}

// tracedBatchAllocs bounds TestTracedBatchAllocs: 575–578 measured
// (go1.24, amd64), where the same batch allocated 1,124 when every span
// allocated its record, a context and an attribute map.
const tracedBatchAllocs = 600

// TestFlightRingFootprint: a full flight ring of batch-sweep-shaped
// requests — 32-item batches, 131 spans each — holds at most 5 MiB: the
// live heap with the ring full, less the live heap once the ring is
// replaced by an empty one.
func TestFlightRingFootprint(t *testing.T) {
	srv, err := New(Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	bodies := batchBenchBodies(t, 4, true)
	for i := 0; i < flightRingSize; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	full := liveHeap()
	srv.flights = newFlightRecorder()
	ring := full - liveHeap()
	t.Logf("the ring of %d batches holds %.2f MiB", flightRingSize, float64(ring)/(1<<20))
	if ring > 5<<20 {
		t.Errorf("the ring of %d batches holds %.2f MiB, want at most 5", flightRingSize, float64(ring)/(1<<20))
	}
}

// liveHeap returns the bytes of live heap objects. Two collections
// also empty the sync.Pools, whose contents survive one.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFlightRecorderRing: the ring retains exactly the last
// flightRingSize entries, newest first.
func TestFlightRecorderRing(t *testing.T) {
	f := newFlightRecorder()
	for i := 0; i < flightRingSize+10; i++ {
		f.record(flightEntry{ID: fmt.Sprintf("r%d", i)})
	}
	got := f.entries()
	if len(got) != flightRingSize {
		t.Fatalf("ring holds %d entries, want %d", len(got), flightRingSize)
	}
	if got[0].ID != fmt.Sprintf("r%d", flightRingSize+9) {
		t.Errorf("newest entry %q", got[0].ID)
	}
	if got[flightRingSize-1].ID != "r10" {
		t.Errorf("oldest retained entry %q, want r10", got[flightRingSize-1].ID)
	}
}

// TestRawHitAllocs: a traced raw-body cache hit on /v1/evaluate, the
// whole of evaluate-warm's traffic, allocates no more than rawHitAllocs
// objects through the handler, httptest's recorder and request
// included, once the flight ring has filled.
func TestRawHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(scenarioBody)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for i := 0; i < flightRingSize; i++ {
		serve()
	}
	if allocs := testing.AllocsPerRun(100, serve); allocs > rawHitAllocs {
		t.Errorf("a traced raw-body cache hit allocates %.0f objects, want at most %d", allocs, rawHitAllocs)
	}
}

// rawHitAllocs bounds TestRawHitAllocs: 32 measured (go1.24, amd64),
// before and after the journal became a sink for spans only.
const rawHitAllocs = 32
