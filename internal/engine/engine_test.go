package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/corpus"
	"closnet/internal/engine"
	"closnet/internal/obs"
)

// batchRequests builds a mixed-op request list over the paper corpus:
// evaluate and doom across the §3–§4 C_4 families, every search
// objective on the exhaustively-searchable Example 2.3 instance.
func batchRequests(t *testing.T) []engine.Request {
	t.Helper()
	scens, _, err := corpus.Scenarios(4, []string{"theorem34k2", "theorem34k8", "theorem42", "theorem43"})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []engine.Request
	for _, s := range scens {
		reqs = append(reqs,
			engine.Request{Op: engine.OpEvaluate, Scenario: s},
			engine.Request{Op: engine.OpDoom, Scenario: s},
		)
	}
	ex, _, err := corpus.Scenarios(0, []string{"example23"})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{engine.OpSearchLex, engine.OpSearchThroughput, engine.OpSearchRelative} {
		reqs = append(reqs, engine.Request{Op: op, Scenario: ex[0]})
	}
	return reqs
}

func TestRunDeterministic(t *testing.T) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	for _, req := range batchRequests(t) {
		first, err := eng.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if len(first.Body) == 0 || first.Body[len(first.Body)-1] != '\n' {
			t.Errorf("%s: body is not a newline-terminated document: %q", req.Op, first.Body)
		}
		again, err := eng.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%s again: %v", req.Op, err)
		}
		if !bytes.Equal(first.Body, again.Body) {
			t.Errorf("%s: two runs of one request differ:\n%s\n%s", req.Op, first.Body, again.Body)
		}
		if first.Hash != again.Hash {
			t.Errorf("%s: content hash is not stable", req.Op)
		}
	}
}

// TestRunBatchMatchesSingleCalls is the batch determinism contract: for
// every worker count, RunBatch returns exactly the bodies N individual
// Run calls produce, in request order. Run under -race in CI, it also
// proves the fan-out is data-race free.
func TestRunBatchMatchesSingleCalls(t *testing.T) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	reqs := batchRequests(t)

	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, err := eng.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("single %s: %v", req.Op, err)
		}
		want[i] = resp.Body
	}

	for _, workers := range []int{1, 3, 0} {
		results := eng.RunBatch(context.Background(), reqs, workers, nil)
		if len(results) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(results), len(reqs))
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("workers=%d item %d (%s): %v", workers, i, reqs[i].Op, res.Err)
			}
			if !bytes.Equal(res.Resp.Body, want[i]) {
				t.Errorf("workers=%d item %d (%s): batch body differs from single call:\nbatch:  %s\nsingle: %s",
					workers, i, reqs[i].Op, res.Resp.Body, want[i])
			}
		}
	}
}

// TestRunBatchConcurrent hammers one engine with overlapping batches —
// with -race on, this is the shared-state safety check of the batch
// fan-out and the op registry.
func TestRunBatchConcurrent(t *testing.T) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	scens, _, err := corpus.Scenarios(3, []string{"theorem34k2", "theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]engine.Request, 0, 2*len(scens))
	for _, s := range scens {
		reqs = append(reqs,
			engine.Request{Op: engine.OpEvaluate, Scenario: s},
			engine.Request{Op: engine.OpDoom, Scenario: s},
		)
	}
	want := eng.RunBatch(context.Background(), reqs, 1, nil)

	const batches = 8
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			results := eng.RunBatch(context.Background(), reqs, workers, nil)
			for i, res := range results {
				if res.Err != nil {
					errs <- res.Err
					return
				}
				if !bytes.Equal(res.Resp.Body, want[i].Resp.Body) {
					errs <- &mismatchError{i}
					return
				}
			}
		}(b%4 + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{ i int }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("concurrent batch body mismatch at item %d", e.i)
}

func TestRunBatchCancelled(t *testing.T) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	scens, _, err := corpus.Scenarios(3, []string{"theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []engine.Request{
		{Op: engine.OpEvaluate, Scenario: scens[0]},
		{Op: engine.OpDoom, Scenario: scens[0]},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := eng.RunBatch(ctx, reqs, 1, nil)
	for i, res := range results {
		if res.Err == nil {
			t.Errorf("item %d computed under a cancelled context", i)
		}
	}
}

func TestPrepareRejectsBadRequests(t *testing.T) {
	eng := engine.New(engine.Options{})
	scens, _, err := corpus.Scenarios(3, []string{"theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Prepare(engine.Request{Op: "fastest", Scenario: scens[0]}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := eng.Prepare(engine.Request{Op: engine.OpEvaluate}); err == nil {
		t.Error("nil scenario accepted")
	}
}

// TestOpsRegistry pins the registered op names — transports route on
// these strings, so a rename is an API break.
func TestOpsRegistry(t *testing.T) {
	eng := engine.New(engine.Options{})
	got := eng.Ops()
	want := []string{"doom", "evaluate", "search:lex", "search:lex:pruned",
		"search:relative", "search:throughput", "search:throughput:pruned",
		"session:close", "session:delta", "session:open"}
	if len(got) != len(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ops = %v, want %v", got, want)
		}
	}
}

// TestSearchRelativeNeedsDemands mirrors the single-call 422 contract:
// the relative objective without scenario demands is a compute error,
// not a panic or an empty body.
func TestSearchRelativeNeedsDemands(t *testing.T) {
	eng := engine.New(engine.Options{})
	s := &codec.Scenario{
		Tors: 2, Servers: 1, Middles: 2,
		Flows: []codec.FlowJSON{
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1},
		},
	}
	if _, err := eng.Run(context.Background(), engine.Request{Op: engine.OpSearchRelative, Scenario: s}); err == nil {
		t.Error("relative search without demands succeeded")
	}
}

// TestComputeSpans: a traced search request produces the nested span
// chain engine.compute → search.run → search.shard → core.block_fill,
// and an untraced context leaves the engine span-free with identical
// bodies — tracing must never perturb results.
func TestComputeSpans(t *testing.T) {
	ex, _, err := corpus.Scenarios(0, []string{"example23"})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{SearchWorkers: 1})
	req := engine.Request{Op: engine.OpSearchLex, Scenario: ex[0]}

	plain, err := eng.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace(nil, nil)
	root, ctx := tr.Start(context.Background(), "server.request")
	traced, err := eng.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if !bytes.Equal(plain.Body, traced.Body) {
		t.Errorf("tracing changed the response body:\n%s\n%s", plain.Body, traced.Body)
	}

	spans := tr.Finish().Records()
	byName := map[string]obs.SpanRecord{}
	byID := map[int64]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
		byID[s.ID] = s
	}
	for _, chain := range [][2]string{
		{"engine.compute", "server.request"},
		{"search.run", "engine.compute"},
		{"search.shard", "search.run"},
		{"core.block_fill", "search.shard"},
	} {
		child, ok := byName[chain[0]]
		if !ok {
			t.Fatalf("no %s span in %d spans", chain[0], len(spans))
		}
		if parent := byID[child.Parent]; parent.Name != chain[1] {
			t.Errorf("%s parent is %q, want %q", chain[0], parent.Name, chain[1])
		}
	}
	if got, _ := json.Marshal(byName["engine.compute"].Attrs); string(got) != `{"ok":true,"op":"search:lex"}` {
		t.Errorf("engine.compute attrs %s", got)
	}
}
