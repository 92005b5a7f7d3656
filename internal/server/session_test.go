package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"closnet/internal/engine"
)

// sessionOpenBody is a 4-ToR Clos with two flows.
const sessionOpenBody = `{
  "tors": 4, "servers": 2, "middles": 2,
  "flows": [
    {"srcSwitch": 1, "srcServer": 1, "dstSwitch": 2, "dstServer": 1},
    {"srcSwitch": 3, "srcServer": 1, "dstSwitch": 4, "dstServer": 1}
  ],
  "assignment": [1, 2]
}`

// sessionView decodes a session body: an open or delta body
// (codec.SessionBody) or a close body (codec.SessionCloseBody).
type sessionView struct {
	Session    string   `json:"session"`
	Op         string   `json:"op"`
	Seq        int      `json:"seq"`
	Hash       string   `json:"hash"`
	Flows      []int    `json:"flows"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
	Closed     bool     `json:"closed"`
	Deltas     int      `json:"deltas"`
}

func openSession(t *testing.T, ts *httptest.Server, body string) sessionView {
	t.Helper()
	resp, data := post(t, ts.URL+"/v1/session", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d, body %s", resp.StatusCode, data)
	}
	var sr sessionView
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("open response: %v", err)
	}
	return sr
}

// TestSessionLifecycleMatchesEvaluate drives a session over HTTP —
// open, eight deltas, close — and checks the final state against a
// one-shot /v1/evaluate of the end state: same hash, rates, assignment
// and throughput.
func TestSessionLifecycleMatchesEvaluate(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	sr := openSession(t, ts, sessionOpenBody)
	if sr.Op != engine.OpSessionOpen || len(sr.Flows) != 2 {
		t.Fatalf("open response %+v", sr)
	}

	deltas := []string{
		`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":2,"dstSwitch":3,"dstServer":2},"middle":1}`,
		`{"op":"arrive","flow":{"srcSwitch":2,"srcServer":1,"dstSwitch":4,"dstServer":2},"middle":2}`,
		`{"op":"reroute","id":0,"middle":2}`,
		`{"op":"depart","id":1}`,
		`{"op":"arrive","flow":{"srcSwitch":4,"srcServer":1,"dstSwitch":1,"dstServer":1},"middle":1}`,
		`{"op":"reroute","id":2,"middle":2}`,
		`{"op":"depart","id":3}`,
		`{"op":"reroute","id":4,"middle":1}`,
	}
	var last sessionView
	for i, d := range deltas {
		resp, data := post(t, ts.URL+"/v1/session/"+sr.Session+"/delta", d)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d, body %s", i, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &last); err != nil {
			t.Fatal(err)
		}
		if last.Seq != i+1 {
			t.Fatalf("delta %d: seq %d", i, last.Seq)
		}
		if resp.Header.Get("X-Closnet-Request-Id") == "" {
			t.Error("delta response missing request id header")
		}
	}

	// Live flows: 0 (rerouted to 2), 2 (rerouted to 2), 4 (rerouted
	// to 1); flows 1 and 3 departed.
	endState := `{
	  "tors": 4, "servers": 2, "middles": 2,
	  "flows": [
	    {"srcSwitch": 1, "srcServer": 1, "dstSwitch": 2, "dstServer": 1},
	    {"srcSwitch": 1, "srcServer": 2, "dstSwitch": 3, "dstServer": 2},
	    {"srcSwitch": 4, "srcServer": 1, "dstSwitch": 1, "dstServer": 1}
	  ],
	  "assignment": [2, 2, 1]
	}`
	resp, data := post(t, ts.URL+"/v1/evaluate", endState)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot evaluate: status %d, body %s", resp.StatusCode, data)
	}
	var ev struct {
		Hash       string   `json:"hash"`
		Assignment []int    `json:"assignment"`
		Rates      []string `json:"rates"`
		Throughput string   `json:"throughput"`
	}
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatal(err)
	}
	if last.Hash != ev.Hash {
		t.Errorf("session hash %s != evaluate hash %s", last.Hash, ev.Hash)
	}
	if len(last.Rates) != len(ev.Rates) {
		t.Fatalf("session rates %v != evaluate rates %v", last.Rates, ev.Rates)
	}
	for i := range ev.Rates {
		if last.Rates[i] != ev.Rates[i] || last.Assignment[i] != ev.Assignment[i] {
			t.Errorf("position %d: session (%s, %d) != evaluate (%s, %d)",
				i, last.Rates[i], last.Assignment[i], ev.Rates[i], ev.Assignment[i])
		}
	}
	if last.Throughput != ev.Throughput {
		t.Errorf("session throughput %s != evaluate %s", last.Throughput, ev.Throughput)
	}

	resp, data = post(t, ts.URL+"/v1/session/"+sr.Session+"/close", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d, body %s", resp.StatusCode, data)
	}
	var cr sessionView
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Closed || cr.Deltas != len(deltas) {
		t.Fatalf("close response %+v", cr)
	}
}

// TestSessionHTTPErrors pins the error mapping: 404 for unknown
// sessions and routes, 400 for malformed deltas, 422 for deltas the
// session cannot apply, 405 for wrong methods.
func TestSessionHTTPErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	sr := openSession(t, ts, sessionOpenBody)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"unknown session delta", "POST", "/v1/session/deadbeef/delta", `{"op":"depart","id":0}`, 404},
		{"unknown session close", "POST", "/v1/session/deadbeef/close", "", 404},
		{"unknown route", "POST", "/v1/session/" + sr.Session + "/frob", "", 404},
		{"deep route", "POST", "/v1/session/" + sr.Session + "/delta/extra", "", 404},
		{"malformed delta", "POST", "/v1/session/" + sr.Session + "/delta", `{"op":"warp"}`, 400},
		{"bad open body", "POST", "/v1/session", `{"tors": 0}`, 400},
		{"depart unknown id", "POST", "/v1/session/" + sr.Session + "/delta", `{"op":"depart","id":99}`, 422},
		{"arrive bad middle", "POST", "/v1/session/" + sr.Session + "/delta", `{"op":"arrive","flow":{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},"middle":9}`, 422},
		{"get on open", "GET", "/v1/session", "", 405},
		{"get on delta", "GET", "/v1/session/" + sr.Session + "/delta", "", 405},
		{"post on session id", "POST", "/v1/session/" + sr.Session, "", 405},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.body != "" {
			req, err = http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestSessionDeleteAlias: DELETE /v1/session/{id} closes the session.
func TestSessionDeleteAlias(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	sr := openSession(t, ts, sessionOpenBody)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sr.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE close: status %d", resp.StatusCode)
	}
	// Second close → 404.
	resp, err = http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d, want 404", resp.StatusCode)
	}
}

// TestSessionTableFull429: opens past MaxSessions shed load with 429.
func TestSessionTableFull429(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2, MaxSessions: 2})
	openSession(t, ts, sessionOpenBody)
	openSession(t, ts, sessionOpenBody)
	resp, data := post(t, ts.URL+"/v1/session", sessionOpenBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("3rd open: status %d, body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestSessionStats: /v1/stats reports the session block.
func TestSessionStats(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2, MaxSessions: 8, SessionTTL: time.Minute})
	sr := openSession(t, ts, sessionOpenBody)
	post(t, ts.URL+"/v1/session/"+sr.Session+"/delta", `{"op":"reroute","id":0,"middle":2}`)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Sessions engine.SessionStats `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions.Open != 1 || st.Sessions.Opened != 1 || st.Sessions.Deltas != 1 {
		t.Errorf("session stats %+v", st.Sessions)
	}
	if st.Sessions.Capacity != 8 || st.Sessions.TTLMs != 60_000 {
		t.Errorf("session config in stats %+v", st.Sessions)
	}
}

// TestSessionDrainRefuses: a draining server turns session traffic away
// with 503.
func TestSessionDrainRefuses(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 2})
	sr := openSession(t, ts, sessionOpenBody)
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/session", sessionOpenBody},
		{"/v1/session/" + sr.Session + "/delta", `{"op":"depart","id":0}`},
		{"/v1/session/" + sr.Session + "/close", ""},
	} {
		resp, _ := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s during drain: status %d, want 503", c.path, resp.StatusCode)
		}
	}
}
