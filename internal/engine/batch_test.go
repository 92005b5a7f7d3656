package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"closnet/internal/codec"
	"closnet/internal/corpus"
	"closnet/internal/engine"
)

// TestPrepareBatchMatchesPrepare: every slot of PrepareBatch holds what
// Prepare returns for its request alone, across an assignment sweep
// interleaved with an unknown op, a missing scenario, an out-of-range
// middle and a respelled copy; and RunBatch's default runner answers
// every slot as Run does.
func TestPrepareBatchMatchesPrepare(t *testing.T) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	scens, _, err := corpus.Scenarios(3, []string{"theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	base := scens[0]
	sweep := func(shift int) *codec.Scenario {
		s := *base
		s.Assignment = make([]int, len(s.Flows))
		for i := range s.Assignment {
			s.Assignment[i] = 1 + (i+shift)%s.Middles
		}
		return &s
	}
	bad := sweep(2)
	bad.Assignment[0] = bad.Middles + 1
	respelled := sweep(3)
	respelled.Topology = "clos"
	reqs := []engine.Request{
		{Op: engine.OpEvaluate, Scenario: sweep(0)},
		{Op: engine.OpEvaluate, Scenario: sweep(1)},
		{Op: "fastest", Scenario: sweep(1)},
		{Op: engine.OpEvaluate, Scenario: bad},
		{Op: engine.OpEvaluate},
		{Op: engine.OpDoom, Scenario: sweep(2)},
		{Op: engine.OpEvaluate, Scenario: respelled},
		{Op: engine.OpEvaluate, Scenario: sweep(4)},
	}
	preps, errs := eng.PrepareBatch(reqs)
	results := eng.RunBatch(context.Background(), reqs, 2, nil)
	for i, req := range reqs {
		p, err := eng.Prepare(req)
		if fmt.Sprint(errs[i]) != fmt.Sprint(err) || !reflect.DeepEqual(preps[i], p) {
			t.Errorf("item %d: PrepareBatch %+v, %v; Prepare %+v, %v", i, preps[i], errs[i], p, err)
		}
		resp, err := eng.Run(context.Background(), req)
		if got := results[i]; fmt.Sprint(got.Err) != fmt.Sprint(err) || (resp != nil) != (got.Resp != nil) ||
			(resp != nil && (resp.Hash != got.Resp.Hash || !bytes.Equal(resp.Body, got.Resp.Body))) {
			t.Errorf("item %d: RunBatch %+v, %v; Run %+v, %v", i, got.Resp, got.Err, resp, err)
		}
	}
}

// TestRunBatchPanicRecovery: a Runner that panics on one item must land
// the panic in that item's error slot while every other item completes.
// Before the recovery fix a panic killed the worker goroutine, which
// then never signalled done, and RunBatch blocked forever — hence the
// run under an explicit watchdog instead of relying on the test
// timeout.
func TestRunBatchPanicRecovery(t *testing.T) {
	eng := engine.New(engine.Options{SearchWorkers: 1})
	scens, _, err := corpus.Scenarios(3, []string{"theorem42"})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]engine.Request, 6)
	for i := range reqs {
		reqs[i] = engine.Request{Op: engine.OpEvaluate, Scenario: scens[0]}
	}
	const boom = 2
	run := func(ctx context.Context, i int, req engine.Request) (*engine.Response, error) {
		if i == boom {
			panic("runner exploded")
		}
		return eng.Run(ctx, req)
	}

	out := make(chan []engine.BatchResult, 1)
	go func() { out <- eng.RunBatch(context.Background(), reqs, 2, run) }()
	var results []engine.BatchResult
	select {
	case results = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("RunBatch deadlocked after a runner panic")
	}

	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if i == boom {
			if res.Err == nil {
				t.Fatalf("item %d: panic did not surface as an error", i)
			}
			if !strings.Contains(res.Err.Error(), "panicked") || !strings.Contains(res.Err.Error(), "runner exploded") {
				t.Errorf("item %d error %q does not identify the panic", i, res.Err)
			}
			if res.Resp != nil {
				t.Errorf("item %d carries both a response and an error", i)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("item %d failed alongside the panicking item: %v", i, res.Err)
			continue
		}
		if res.Resp == nil || len(res.Resp.Body) == 0 {
			t.Errorf("item %d completed without a body", i)
		}
	}
}
