package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

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

// TestDebugRequests: the flight recorder surfaces the recent requests
// newest-first with trace IDs matching the response headers, cache
// state, and the span tree of a computed request reaching the engine.
func TestDebugRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	respMiss, _ := post(t, ts.URL+"/v1/evaluate", scenarioBody)
	respHit, _ := post(t, ts.URL+"/v1/evaluate", scenarioBody)

	resp, err := http.Get(ts.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Requests []flightEntry `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Requests) != 2 {
		t.Fatalf("recorded %d requests, want 2", len(out.Requests))
	}
	hit, miss := out.Requests[0], out.Requests[1] // newest first
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
	resp2, err := http.Get(ts.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 struct {
		Requests []flightEntry `json:"requests"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if len(out2.Requests) != 2 {
		t.Errorf("reading the recorder added entries: %d", len(out2.Requests))
	}
}

// TestDebugRequestsBatch: a /v1/batch entry in the flight recorder
// carries the spans of the envelope's decode and of the in-order
// prepare that runs before the fan-out, beside its items' cache
// lookups.
func TestDebugRequestsBatch(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	sweep := sweepItems(t, [][]int{{1, 2, 3, 1, 2, 3}, {3, 3, 1, 2, 1, 1}})
	resp, body := post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", sweep...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Requests []flightEntry `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Requests) != 1 || out.Requests[0].Op != "batch" {
		t.Fatalf("recorded %+v, want the one batch", out.Requests)
	}
	count := map[string]int{}
	for _, sp := range out.Requests[0].Spans {
		count[sp.Name]++
	}
	for name, want := range map[string]int{"server.decode": 1, "engine.prepare": 1, "server.cache": len(sweep)} {
		if count[name] != want {
			t.Errorf("batch trace has %d %s spans, want %d (have %v)", count[name], name, want, count)
		}
	}
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
