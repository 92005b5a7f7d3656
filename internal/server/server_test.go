package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"closnet/internal/obs"
)

// scenarioBody is a small C_3-shaped instance with six flows; its
// permuted sibling below must hash to the same content address.
const scenarioBody = `{
  "name": "integration",
  "tors": 3, "servers": 2, "middles": 3,
  "flows": [
    {"srcSwitch": 1, "srcServer": 1, "dstSwitch": 1, "dstServer": 1},
    {"srcSwitch": 1, "srcServer": 2, "dstSwitch": 1, "dstServer": 1},
    {"srcSwitch": 2, "srcServer": 1, "dstSwitch": 1, "dstServer": 2},
    {"srcSwitch": 2, "srcServer": 2, "dstSwitch": 2, "dstServer": 1},
    {"srcSwitch": 3, "srcServer": 1, "dstSwitch": 2, "dstServer": 2},
    {"srcSwitch": 3, "srcServer": 2, "dstSwitch": 3, "dstServer": 1}
  ],
  "demands": ["1", "1/2", "2/4", "1", "1", "3/3"]
}`

// scenarioBodyPermuted is the same instance spelled differently: flows
// reordered, demands following them, rate strings unnormalized, another
// name. Canonicalization must erase all of it.
const scenarioBodyPermuted = `{
  "name": "same-instance-other-spelling",
  "tors": 3, "servers": 2, "middles": 3,
  "flows": [
    {"srcSwitch": 3, "srcServer": 2, "dstSwitch": 3, "dstServer": 1},
    {"srcSwitch": 1, "srcServer": 2, "dstSwitch": 1, "dstServer": 1},
    {"srcSwitch": 2, "srcServer": 2, "dstSwitch": 2, "dstServer": 1},
    {"srcSwitch": 1, "srcServer": 1, "dstSwitch": 1, "dstServer": 1},
    {"srcSwitch": 3, "srcServer": 1, "dstSwitch": 2, "dstServer": 2},
    {"srcSwitch": 2, "srcServer": 1, "dstSwitch": 1, "dstServer": 2}
  ],
  "demands": ["1", "2/4", "1", "2/2", "1", "1/2"]
}`

// otherScenarioBody is a distinct instance (different flow set), used
// where tests need a second cache key.
const otherScenarioBody = `{
  "tors": 2, "servers": 1, "middles": 2,
  "flows": [
    {"srcSwitch": 1, "srcServer": 1, "dstSwitch": 2, "dstServer": 1},
    {"srcSwitch": 2, "srcServer": 1, "dstSwitch": 1, "dstServer": 1}
  ]
}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if opts.Obs == nil {
		opts.Obs = &obs.Obs{Reg: reg}
	} else {
		reg = opts.Obs.Registry()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func TestEvaluateColdThenCachedByteIdentical(t *testing.T) {
	_, ts, reg := newTestServer(t, Options{Workers: 2})
	url := ts.URL + "/v1/evaluate"

	resp1, cold := post(t, url, scenarioBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold evaluate: status %d, body %s", resp1.StatusCode, cold)
	}
	if got := resp1.Header.Get("X-Closnet-Cache"); got != "miss" {
		t.Errorf("cold request cache header = %q, want miss", got)
	}

	resp2, warm := post(t, url, scenarioBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm evaluate: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Closnet-Cache"); got != "hit" {
		t.Errorf("warm request cache header = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("cached body differs from cold body:\ncold: %s\nwarm: %s", cold, warm)
	}

	// A permuted spelling of the same instance is the same content
	// address: served from cache, byte-identical.
	resp3, permuted := post(t, url, scenarioBodyPermuted)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("permuted evaluate: status %d, body %s", resp3.StatusCode, permuted)
	}
	if got := resp3.Header.Get("X-Closnet-Cache"); got != "hit" {
		t.Errorf("permuted request cache header = %q, want hit", got)
	}
	if !bytes.Equal(cold, permuted) {
		t.Errorf("permuted-instance body differs from cold body:\ncold: %s\nperm: %s", cold, permuted)
	}

	snap := reg.Snapshot()
	if snap.Counters["server.cache.hits"] != 2 {
		t.Errorf("cache hits = %d, want 2", snap.Counters["server.cache.hits"])
	}
	if snap.Counters["server.cache.misses"] != 1 {
		t.Errorf("cache misses = %d, want 1", snap.Counters["server.cache.misses"])
	}

	var decoded struct {
		Hash       string   `json:"hash"`
		Flows      int      `json:"flows"`
		Rates      []string `json:"rates"`
		Throughput string   `json:"throughput"`
	}
	if err := json.Unmarshal(cold, &decoded); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	if decoded.Flows != 6 || len(decoded.Rates) != 6 || decoded.Hash == "" || decoded.Throughput == "" {
		t.Errorf("unexpected response shape: %+v", decoded)
	}
}

func TestSearchAndDoomEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})

	for _, objective := range []string{"lex", "throughput", "relative"} {
		resp, body := post(t, ts.URL+"/v1/search?objective="+objective, scenarioBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %s: status %d, body %s", objective, resp.StatusCode, body)
		}
		var decoded struct {
			Objective  string   `json:"objective"`
			Assignment []int    `json:"assignment"`
			Rates      []string `json:"rates"`
			States     int      `json:"states"`
			MinRatio   string   `json:"minRatio"`
		}
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("search %s: bad JSON: %v", objective, err)
		}
		if decoded.Objective != objective || len(decoded.Assignment) != 6 || decoded.States == 0 {
			t.Errorf("search %s: unexpected response %s", objective, body)
		}
		if objective == "relative" && decoded.MinRatio == "" {
			t.Errorf("relative search lost its min ratio: %s", body)
		}
	}

	// Default objective is lex; the explicit spelling shares its cache key.
	resp, _ := post(t, ts.URL+"/v1/search", scenarioBody)
	if got := resp.Header.Get("X-Closnet-Cache"); got != "hit" {
		t.Errorf("default-objective search cache header = %q, want hit", got)
	}

	resp, body := post(t, ts.URL+"/v1/doom", scenarioBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("doom: status %d, body %s", resp.StatusCode, body)
	}
	var doomResp struct {
		Assignment []int `json:"assignment"`
		Matched    int   `json:"matched"`
	}
	if err := json.Unmarshal(body, &doomResp); err != nil {
		t.Fatalf("doom: bad JSON: %v", err)
	}
	if len(doomResp.Assignment) != 6 || doomResp.Matched == 0 {
		t.Errorf("doom: unexpected response %s", body)
	}

	// relative needs demands; without them the instance is unservable.
	resp, _ = post(t, ts.URL+"/v1/search?objective=relative", otherScenarioBody)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("relative without demands: status %d, want 422", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})

	resp, _ := post(t, ts.URL+"/v1/evaluate", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	resp, _ = post(t, ts.URL+"/v1/evaluate", `{"tors": 0, "servers": 1, "middles": 1, "flows": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid shape: status %d, want 400", resp.StatusCode)
	}

	resp, _ = post(t, ts.URL+"/v1/search?objective=fastest", scenarioBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown objective: status %d, want 400", resp.StatusCode)
	}

	getResp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on compute endpoint: status %d, want 405", getResp.StatusCode)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1})

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}

	post(t, ts.URL+"/v1/evaluate", scenarioBody)
	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", resp.StatusCode)
	}
	var stats struct {
		Cache struct {
			Entries  int `json:"entries"`
			Aliases  int `json:"aliases"`
			Capacity int `json:"capacity"`
		} `json:"cache"`
		Admission struct {
			Workers int `json:"workers"`
		} `json:"admission"`
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("/v1/stats: bad JSON: %v", err)
	}
	// One computed result = one capacity-consuming cache entry (the
	// canonical-hash entry) plus one capacity-free raw-bytes alias.
	if stats.Cache.Entries != 1 || stats.Cache.Aliases != 1 || stats.Admission.Workers != 1 {
		t.Errorf("unexpected stats: %s", body)
	}
	if stats.Metrics.Counters["server.requests"] == 0 {
		t.Errorf("stats carry no request counter: %s", body)
	}
	// Evaluate requests run through the shared block evaluator, so the
	// core block counters and the engine pool counters surface here.
	if stats.Metrics.Counters["core.block_fills"] == 0 {
		t.Errorf("stats carry no core.block_fills counter: %s", body)
	}
	if stats.Metrics.Counters["engine.evaluator_builds"] == 0 {
		t.Errorf("stats carry no engine.evaluator_builds counter: %s", body)
	}
}

// TestComputePanicDoesNotPoisonFlight: a compute that panics must still
// finish its flight (with a 500) and release its admission slot, so an
// identical request afterwards computes afresh instead of joining a
// flight that never ends.
func TestComputePanicDoesNotPoisonFlight(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1})
	var once sync.Once
	s.computeStarted = func(context.Context, string) {
		once.Do(func() { panic("injected compute panic") })
	}
	client := &http.Client{Timeout: 5 * time.Second}
	post := func() (int, []byte) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/evaluate", "application/json",
			bytes.NewReader([]byte(scenarioBody)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if status, body := post(); status != http.StatusInternalServerError {
		t.Fatalf("panicking compute: status %d, body %s; want 500", status, body)
	}
	if status, body := post(); status != http.StatusOK {
		t.Fatalf("request after a panicked flight: status %d, body %s; want 200", status, body)
	}
}

// TestCoalescing holds the flight leader at the compute gate while
// followers pile onto the same content address, then releases it and
// checks one computation served everyone byte-identically.
func TestCoalescing(t *testing.T) {
	const followers = 3
	gate := make(chan struct{})
	started := make(chan string, 8)
	s, ts, reg := newTestServer(t, Options{Workers: 4})
	s.computeStarted = func(_ context.Context, op string) {
		started <- op
		<-gate
	}

	type outcome struct {
		status int
		cache  string
		body   []byte
	}
	results := make(chan outcome, followers+1)
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
				bytes.NewReader([]byte(scenarioBody)))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- outcome{resp.StatusCode, resp.Header.Get("X-Closnet-Cache"), body}
		}()
	}

	launch()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the compute gate")
	}
	for i := 0; i < followers; i++ {
		launch()
	}
	// Followers count themselves into server.coalesced before waiting on
	// the flight; once all have, exactly one computation is in progress.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["server.coalesced"] < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined the flight",
				reg.Snapshot().Counters["server.coalesced"])
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	var bodies [][]byte
	counts := map[string]int{}
	for out := range results {
		if out.status != http.StatusOK {
			t.Errorf("status %d, want 200", out.status)
		}
		counts[out.cache]++
		bodies = append(bodies, out.body)
	}
	if counts["miss"] != 1 || counts["coalesced"] != followers {
		t.Errorf("cache headers = %v, want 1 miss and %d coalesced", counts, followers)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("coalesced body %d differs from leader's", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["server.coalesced"] != followers {
		t.Errorf("server.coalesced = %d, want %d", snap.Counters["server.coalesced"], followers)
	}
}

// TestLeaderDisconnectDoesNotFailFollowers: the flight leader's client
// disconnects while a follower waits on the same key. The shared
// computation must not inherit the leader's cancellation: the follower
// gets 200 with exactly the body a later request reads from the cache.
func TestLeaderDisconnectDoesNotFailFollowers(t *testing.T) {
	started := make(chan struct{})
	s, ts, reg := newTestServer(t, Options{Workers: 2})
	var once sync.Once
	s.computeStarted = func(reqCtx context.Context, _ string) {
		once.Do(func() {
			close(started)
			<-reqCtx.Done() // hold the flight until the leader's client is gone
		})
	}
	url := ts.URL + "/v1/search?objective=lex"

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost, url, bytes.NewReader([]byte(scenarioBody)))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the compute gate")
	}

	type outcome struct {
		status int
		body   []byte
	}
	follower := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(scenarioBody)))
		if err != nil {
			t.Errorf("follower POST: %v", err)
			follower <- outcome{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		follower <- outcome{resp.StatusCode, body}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["server.coalesced"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	<-leaderDone

	var got outcome
	select {
	case got = <-follower:
	case <-time.After(10 * time.Second):
		t.Fatal("follower still waiting after the leader disconnected")
	}
	if got.status != http.StatusOK {
		t.Fatalf("follower: status %d, body %s; want 200", got.status, got.body)
	}
	resp, cached := post(t, url, scenarioBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Closnet-Cache") != "hit" {
		t.Fatalf("after the flight: status %d, cache %q; want a 200 cache hit",
			resp.StatusCode, resp.Header.Get("X-Closnet-Cache"))
	}
	if !bytes.Equal(got.body, cached) {
		t.Errorf("follower body differs from the cached body:\n%s\n%s", got.body, cached)
	}
}

// TestFollowerWaitBounded: on a server whose clients set no deadline, a
// follower waits on a stuck flight no longer than the server Timeout.
func TestFollowerWaitBounded(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	s, ts, reg := newTestServer(t, Options{Workers: 2, Timeout: 200 * time.Millisecond})
	var once sync.Once
	s.computeStarted = func(context.Context, string) {
		once.Do(func() {
			close(started)
			<-gate // a compute that ignores its deadline
		})
	}
	url := ts.URL + "/v1/evaluate"
	go func() {
		if resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(scenarioBody))); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the compute gate")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(scenarioBody)))
	if err != nil {
		t.Fatalf("follower of a stuck flight on a 200ms server deadline: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("follower of a stuck flight: status %d, body %s; want 504", resp.StatusCode, body)
	}
	if reg.Snapshot().Counters["server.coalesced"] != 1 {
		t.Errorf("server.coalesced = %d, want 1", reg.Snapshot().Counters["server.coalesced"])
	}
}

// TestSaturation429 fills the single worker slot and asserts the next
// distinct request is shed immediately with 429 + Retry-After.
func TestSaturation429(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 1)
	s, ts, reg := newTestServer(t, Options{Workers: 1, QueueDepth: -1})
	s.computeStarted = func(_ context.Context, op string) {
		started <- op
		<-gate
	}

	first := make(chan outcomeStatus, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
			bytes.NewReader([]byte(scenarioBody)))
		if err != nil {
			first <- outcomeStatus{err: err}
			return
		}
		resp.Body.Close()
		first <- outcomeStatus{status: resp.StatusCode}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never started computing")
	}

	// A different instance (different cache key, so no coalescing) now
	// finds pool and queue full.
	resp, body := post(t, ts.URL+"/v1/evaluate", otherScenarioBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After")
	}

	close(gate)
	out := <-first
	if out.err != nil {
		t.Fatalf("first request failed: %v", out.err)
	}
	if out.status != http.StatusOK {
		t.Errorf("first request: status %d, want 200", out.status)
	}
	if got := reg.Snapshot().Counters["server.rejects"]; got != 1 {
		t.Errorf("server.rejects = %d, want 1", got)
	}
}

type outcomeStatus struct {
	status int
	err    error
}

// TestDrain verifies graceful shutdown: Drain waits for the in-flight
// request, new requests get fast 503s meanwhile, and readiness flips.
func TestDrain(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 1)
	s, ts, _ := newTestServer(t, Options{Workers: 2})
	s.computeStarted = func(_ context.Context, op string) {
		started <- op
		<-gate
	}

	first := make(chan outcomeStatus, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
			bytes.NewReader([]byte(scenarioBody)))
		if err != nil {
			first <- outcomeStatus{err: err}
			return
		}
		resp.Body.Close()
		first <- outcomeStatus{status: resp.StatusCode}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never started computing")
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// Drain must not return while the request is still computing.
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New work is refused fast, and readiness reflects the drain.
	deadline := time.Now().Add(5 * time.Second)
	for !s.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := post(t, ts.URL+"/v1/evaluate", otherScenarioBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", resp.StatusCode)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: status %d, want 503", ready.StatusCode)
	}

	close(gate)
	out := <-first
	if out.err != nil || out.status != http.StatusOK {
		t.Errorf("in-flight request: status %d err %v, want 200 nil — drain must not kill it", out.status, out.err)
	}
	if err := <-drainErr; err != nil {
		t.Errorf("Drain: %v", err)
	}

	// Drain on an idle server returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestRequestTimeout gives a heavy search a tiny deadline and expects
// 504: the context must reach the enumeration loop and stop it.
func TestRequestTimeout(t *testing.T) {
	heavy := heavySearchScenario()
	_, ts, _ := newTestServer(t, Options{Workers: 1, Timeout: 5 * time.Millisecond, MaxStates: 1 << 30})
	resp, body := post(t, ts.URL+"/v1/search?objective=lex", heavy)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-bound search: status %d, body %s, want 504", resp.StatusCode, body)
	}
}

// heavySearchScenario builds a C_4 instance with enough flows that lex
// search cannot finish in single-digit milliseconds.
func heavySearchScenario() string {
	type flow struct {
		SrcSwitch int `json:"srcSwitch"`
		SrcServer int `json:"srcServer"`
		DstSwitch int `json:"dstSwitch"`
		DstServer int `json:"dstServer"`
	}
	var flows []flow
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 3; j++ {
			flows = append(flows, flow{i, j, i%4 + 1, j})
		}
	}
	scen := map[string]any{
		"tors": 4, "servers": 3, "middles": 4,
		"flows": flows,
	}
	data, err := json.Marshal(scen)
	if err != nil {
		panic(fmt.Sprintf("marshal heavy scenario: %v", err))
	}
	return string(data)
}
