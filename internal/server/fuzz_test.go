package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"closnet/internal/obs"
)

// fuzzTimeout is FuzzServe's server deadline; batches carry at most as
// many items as there are workers, so every request is one deadline
// long at most.
const fuzzTimeout = 2 * time.Second

// FuzzServe drives /v1/evaluate and /v1/batch with arbitrary bodies
// through Server.Handler(). Invariants: no request gets a 500, every
// request returns within the server deadline (plus scheduling grace),
// and a body that got a 200 gets byte-identical bytes again, from the
// cache.
func FuzzServe(f *testing.F) {
	f.Add(false, []byte(scenarioBody))
	f.Add(false, []byte(`{"tors":100000,"servers":100000,"middles":1,"flows":[]}`))
	f.Add(false, []byte(`{"topology":"fattree","tors":1,"servers":4096,"middles":1,"flows":[]}`))
	f.Add(false, []byte(`{"tors":2,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["1e99999999"]}`))
	f.Add(false, []byte(`{"Tors":2,"servers":1,"middles":2,"name":"é","flows":[{"srcSwitch":2,"srcServer":1,"dstSwitch":1,"dstServer":1},{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["2/4","010/3"]}`))
	f.Add(false, []byte(`{"topology":"fattree","tors":8,"servers":2,"middles":4,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":8,"dstServer":2}],"assignment":[4]}`))
	f.Add(false, []byte(`{"tors":0}`))
	f.Add(false, []byte(`{`))
	f.Add(true, []byte(`{"items":[{"scenario":`+scenarioBody+`},{"op":"search:lex","scenario":`+scenarioBody+`}]}`))
	f.Add(true, []byte(`{"op":"doom","items":[{"scenario":`+scenarioBody+`},{"scenario":{"tors":0}}]}`))
	f.Add(true, []byte(`{"Items":[{"Scenario":`+scenarioBody+`}]}`))
	f.Add(true, []byte(`{"items":[]}`))

	srv, err := New(Options{
		Workers:       2,
		Timeout:       fuzzTimeout,
		MaxStates:     1 << 12,
		MaxBatchItems: 2,
		Obs:           &obs.Obs{Reg: obs.NewRegistry()},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	do := func(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if d := time.Since(start); d > fuzzTimeout+time.Second {
			t.Fatalf("POST %s took %v, past the %v deadline: %.200q", path, d, fuzzTimeout, body)
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s: 500 %s for %.200q", path, rec.Body.Bytes(), body)
		}
		return rec
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/evaluate"
		if batch {
			path = "/v1/batch"
		}
		first := do(t, path, body)
		if first.Code != http.StatusOK {
			return
		}
		again := do(t, path, body)
		if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("repeated %s body: %d %s, first %s", path, again.Code, again.Body.Bytes(), first.Body.Bytes())
		}
		if !batch && again.Header().Get("X-Closnet-Cache") != "hit" {
			t.Fatalf("repeated evaluate body missed the cache: %q", again.Header().Get("X-Closnet-Cache"))
		}
	})
}

// TestSizeCapsRejectSmallBody: a 55-byte body asking for a fabric with
// 10^10 servers per side gets a 400 naming the cap, a 69-byte one
// asking for an 8192-pod fat-tree a 400 naming the shape, and nothing
// is built or computed.
func TestSizeCapsRejectSmallBody(t *testing.T) {
	_, ts, reg := newTestServer(t, Options{Workers: 1})
	for body, want := range map[string]string{
		`{"tors":100000,"servers":100000,"middles":1,"flows":[]}`:               "cap",
		`{"topology":"fattree","tors":1,"servers":4096,"middles":1,"flows":[]}`: "shape",
	} {
		for _, path := range []string{"/v1/evaluate", "/v1/search", "/v1/doom", "/v1/session"} {
			resp, got := post(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(got), want) {
				t.Errorf("%s: %d %s, want 400 naming the %s", path, resp.StatusCode, got, want)
			}
		}
		resp, got := post(t, ts.URL+"/v1/batch", `{"items":[{"scenario":`+body+`}]}`)
		if resp.StatusCode != http.StatusMultiStatus || !strings.Contains(string(got), want) {
			t.Errorf("batch: %d %s, want 207 with the item's %s error", resp.StatusCode, got, want)
		}
	}
	counters := reg.Snapshot().Counters
	if counters["engine.computes"] != 0 || counters["engine.evaluator_builds"] != 0 || counters["engine.sessions.opened"] != 0 {
		t.Errorf("an oversized scenario reached the engine: %v", counters)
	}
}
