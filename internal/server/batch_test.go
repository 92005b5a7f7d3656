package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/corpus"
)

// batchEnvelope renders a /v1/batch request over the given scenario
// payloads, one item per scenario, with the given per-item op.
func batchEnvelope(t *testing.T, op string, scenarios ...[]byte) string {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(`{"items":[`)
	for i, s := range scenarios {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":%q,"scenario":%s}`, op, s)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestBatchMatchesSingleCalls is the transport half of the batch
// contract: POST /v1/batch of N scenarios returns exactly the N
// single-call bodies, concatenated in request order.
func TestBatchMatchesSingleCalls(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	bodies, names, err := corpus.Build(3, []string{"theorem34k2", "theorem42", "theorem43"})
	if err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	for i, scen := range bodies {
		resp, single := post(t, ts.URL+"/v1/evaluate", string(scen))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %s: status %d, body %s", names[i], resp.StatusCode, single)
		}
		want.Write(single)
	}

	resp, got := post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", bodies...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Closnet-Batch-Items") != "3" {
		t.Errorf("X-Closnet-Batch-Items = %q, want 3", resp.Header.Get("X-Closnet-Batch-Items"))
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("batch body is not the concatenation of the single-call bodies:\ngot:  %s\nwant: %s", got, want.Bytes())
	}

	// An assignment sweep, whose items share one traffic matrix and so
	// one canonical prefix: identical flows tie on endpoints, some broken
	// by demand and the rest by assignment, and demands are spelled two
	// ways. Sent once in the fast subset, where consecutive items share
	// their decoded flows and demands, and once with an item between
	// shared ones respelled outside it, which sends the envelope to the
	// encoding/json fallback.
	sweep := sweepItems(t, [][]int{{1, 2, 3, 1, 2, 3}, {3, 3, 1, 2, 1, 1}, {2, 1, 1, 3, 3, 2}, {1, 1, 1, 1, 1, 1}})
	respelled := bytes.Replace(sweep[2], []byte(`"tors":`), []byte(`"Tors":`), 1)
	for _, items := range [][][]byte{sweep, {sweep[0], sweep[1], respelled, sweep[3], sweep[4]}} {
		want.Reset()
		for _, item := range items {
			resp, single := post(t, ts.URL+"/v1/evaluate", string(item))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single sweep item: status %d, body %s", resp.StatusCode, single)
			}
			want.Write(single)
		}
		resp, got := post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", items...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep batch: status %d, body %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("sweep batch body is not the concatenation of the single-call bodies:\ngot:  %s\nwant: %s", got, want.Bytes())
		}
	}
}

// sweepItems renders one C_3 traffic matrix under each assignment, as
// json.Marshal writes it, followed by the matrix under the first
// assignment with its demands respelled ("2/4" for "1/2", "2/2" for
// "1"). The flows {2,1}→{1,1} tie and are ordered by demand; the flows
// {1,1}→{3,2} include two that tie on demand as well, ordered by
// assignment.
func sweepItems(t *testing.T, assignments [][]int) [][]byte {
	t.Helper()
	s := codec.Scenario{
		Name: "sweep", Tors: 3, Servers: 2, Middles: 3,
		Flows: []codec.FlowJSON{
			{SrcSwitch: 2, SrcServer: 1, DstSwitch: 1, DstServer: 1},
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 3, DstServer: 2},
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 3, DstServer: 2},
			{SrcSwitch: 2, SrcServer: 1, DstSwitch: 1, DstServer: 1},
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 3, DstServer: 2},
			{SrcSwitch: 3, SrcServer: 2, DstSwitch: 2, DstServer: 2},
		},
		Demands: []string{"1/2", "1", "1/3", "1", "1", "1/3"},
	}
	var items [][]byte
	for _, ma := range assignments {
		s.Assignment = ma
		items = append(items, mustMarshal(t, &s))
	}
	s.Assignment = assignments[0]
	s.Demands = []string{"2/4", "2/2", "1/3", "1", "1", "1/3"}
	return append(items, mustMarshal(t, &s))
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBatchEnvelopeDefaultOp checks the envelope-level op applies to
// items that carry none, defaulting to evaluate when both are absent.
func TestBatchEnvelopeDefaultOp(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	bodies, _, err := corpus.Build(3, []string{"theorem42"})
	if err != nil {
		t.Fatal(err)
	}

	_, single := post(t, ts.URL+"/v1/doom", string(bodies[0]))
	envelope := fmt.Sprintf(`{"op":"doom","items":[{"scenario":%s}]}`, bodies[0])
	resp, got := post(t, ts.URL+"/v1/batch", envelope)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, single) {
		t.Errorf("envelope-op batch body differs from /v1/doom body:\ngot:  %s\nwant: %s", got, single)
	}

	_, single = post(t, ts.URL+"/v1/evaluate", string(bodies[0]))
	resp, got = post(t, ts.URL+"/v1/batch", fmt.Sprintf(`{"items":[{"scenario":%s}]}`, bodies[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-op batch: status %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, single) {
		t.Errorf("default-op batch body differs from /v1/evaluate body")
	}
}

// TestBatchUnderConcurrentLoad races batches against overlapping single
// calls for the same content addresses; every response must stay
// byte-identical to the cold bodies. With -race on, this exercises the
// batch fan-out's cache and singleflight participation.
func TestBatchUnderConcurrentLoad(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 4})
	bodies, _, err := corpus.Build(3, []string{"theorem34k2", "theorem34k8", "theorem42"})
	if err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	singles := make([][]byte, len(bodies))
	for i, scen := range bodies {
		_, single := post(t, ts.URL+"/v1/evaluate", string(scen))
		singles[i] = single
		want.Write(single)
	}
	envelope := batchEnvelope(t, "evaluate", bodies...)

	const rounds = 6
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, got := post(t, ts.URL+"/v1/batch", envelope)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch under load: status %d, body %s", resp.StatusCode, got)
				return
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("batch body drifted under concurrent load")
			}
		}()
		go func(i int) {
			defer wg.Done()
			resp, got := post(t, ts.URL+"/v1/evaluate", string(bodies[i]))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("single under load: status %d", resp.StatusCode)
				return
			}
			if !bytes.Equal(got, singles[i]) {
				t.Errorf("single body drifted under concurrent load")
			}
		}(r % len(bodies))
	}
	wg.Wait()
}

// TestBatchItemFailure checks per-item error isolation: a bad item
// yields its single-call error body in its slot, the siblings still
// succeed, and the envelope reports 207 with the error count.
func TestBatchItemFailure(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	bodies, _, err := corpus.Build(3, []string{"theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	_, single := post(t, ts.URL+"/v1/evaluate", string(bodies[0]))

	envelope := fmt.Sprintf(
		`{"items":[{"scenario":%s},{"op":"fastest","scenario":%s},{"scenario":{"tors":0}}]}`,
		bodies[0], bodies[0])
	resp, got := post(t, ts.URL+"/v1/batch", envelope)
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("partial-failure batch: status %d, want 207; body %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Closnet-Batch-Errors") != "2" {
		t.Errorf("X-Closnet-Batch-Errors = %q, want 2", resp.Header.Get("X-Closnet-Batch-Errors"))
	}

	lines := bytes.SplitAfter(got, []byte("\n"))
	lines = lines[:len(lines)-1] // trailing empty split
	if len(lines) != 3 {
		t.Fatalf("batch body has %d lines, want 3: %s", len(lines), got)
	}
	if !bytes.Equal(lines[0], single) {
		t.Errorf("healthy item body differs from its single call:\ngot:  %s\nwant: %s", lines[0], single)
	}
	for i, line := range lines[1:] {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &e); err != nil || e.Error == "" {
			t.Errorf("failed item %d carries no error body: %s", i+1, line)
		}
	}

	// A bad item inside an assignment sweep: its middle is out of range,
	// its flows and demands are its neighbors'. Its slot carries the
	// single call's 400 body, and the shared items around it succeed.
	sweep := sweepItems(t, [][]int{{1, 2, 3, 1, 2, 3}, {3, 3, 1, 2, 1, 4}, {2, 1, 1, 3, 3, 2}})
	var want bytes.Buffer
	for i, item := range sweep[:3] {
		resp, single := post(t, ts.URL+"/v1/evaluate", string(item))
		if wantStatus := []int{200, 400, 200}[i]; resp.StatusCode != wantStatus {
			t.Fatalf("single sweep item %d: status %d, want %d; body %s", i, resp.StatusCode, wantStatus, single)
		}
		want.Write(single)
	}
	resp, got = post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", sweep[:3]...))
	if resp.StatusCode != http.StatusMultiStatus || resp.Header.Get("X-Closnet-Batch-Errors") != "1" {
		t.Fatalf("sweep with a bad item: status %d, %q errors; body %s", resp.StatusCode, resp.Header.Get("X-Closnet-Batch-Errors"), got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("sweep with a bad item is not the concatenation of the single-call bodies:\ngot:  %s\nwant: %s", got, want.Bytes())
	}
}

// TestBatchCacheParticipation verifies batch items share the result
// cache with single calls in both directions.
func TestBatchCacheParticipation(t *testing.T) {
	_, ts, reg := newTestServer(t, Options{Workers: 2})
	bodies, _, err := corpus.Build(3, []string{"theorem42", "theorem43"})
	if err != nil {
		t.Fatal(err)
	}

	// Batch computes both; the follow-up single calls must be hits.
	resp, got := post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", bodies...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, got)
	}
	if misses := reg.Snapshot().Counters["server.cache.misses"]; misses != 2 {
		t.Errorf("cold batch caused %d misses, want 2", misses)
	}
	for _, scen := range bodies {
		resp, _ := post(t, ts.URL+"/v1/evaluate", string(scen))
		if state := resp.Header.Get("X-Closnet-Cache"); state != "hit" {
			t.Errorf("single call after batch: cache %q, want hit", state)
		}
	}
	// And the reverse: a second batch is all hits.
	before := reg.Snapshot().Counters["server.cache.misses"]
	post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", bodies...))
	if after := reg.Snapshot().Counters["server.cache.misses"]; after != before {
		t.Errorf("warm batch caused %d new misses, want 0", after-before)
	}
}

// TestBatchRejectsBadEnvelopes covers the envelope-level error paths.
func TestBatchRejectsBadEnvelopes(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 1, MaxBatchItems: 2})

	resp, _ := post(t, ts.URL+"/v1/batch", "{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed envelope: status %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/batch", `{"items":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	bodies, _, err := corpus.Build(3, []string{"theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = post(t, ts.URL+"/v1/batch", batchEnvelope(t, "evaluate", bodies[0], bodies[0], bodies[0]))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: status %d, want 405", getResp.StatusCode)
	}
}
