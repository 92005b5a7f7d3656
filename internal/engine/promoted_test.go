package engine

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"closnet/internal/core"
)

// forceBigEvaluator leaves one *big.Rat-pinned block evaluator in e's
// pool for p's topology, so the next evaluate of that topology is
// computed on the promoted path; it returns the evaluator.
func forceBigEvaluator(t *testing.T, e *Engine, p *Prepared) *core.BlockEvaluator {
	t.Helper()
	bev, err := e.evals.acquire(p.TopoHash, p.Canon, nil)
	if err != nil {
		t.Fatal(err)
	}
	bev.ForceBig(true)
	e.evals.put(p.TopoHash, bev)
	return bev
}

// TestPromotedBodiesMatchFastPath: with ForceBig on the block and the
// incremental evaluators, the evaluate, batch and session bodies are
// byte-identical to the fast path's, so the writer's *big.Rat form and
// its Rat64 form agree.
func TestPromotedBodiesMatchFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sps := evaluateFabrics(t)
	ctx := context.Background()
	fast, slow := New(Options{SearchWorkers: 1}), New(Options{SearchWorkers: 1})

	for m := 0; m < 10; m++ {
		s := drawTraffic(t, rng, sps, 1, 40)
		var reqs []Request
		for i := 0; i < 4; i++ {
			it := *s
			it.Assignment = drawAssignment(rng, len(s.Flows), s.Middles)
			reqs = append(reqs, Request{Op: OpEvaluate, Scenario: &it})
		}
		// evaluate, one request at a time on a pinned evaluator
		p, err := slow.Prepare(reqs[0])
		if err != nil {
			t.Fatal(err)
		}
		pinned := forceBigEvaluator(t, slow, p)
		for i, req := range reqs {
			want, err := fast.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := slow.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Body, want.Body) {
				t.Fatalf("matrix %d item %d: promoted body\n%s\nfast body\n%s", m, i, got.Body, want.Body)
			}
		}
		// batch, one worker, so every item takes the pinned evaluator
		want := fast.RunBatch(ctx, reqs, 1, nil)
		got := slow.RunBatch(ctx, reqs, 1, nil)
		for i := range reqs {
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("batch item %d: %v / %v", i, want[i].Err, got[i].Err)
			}
			if !bytes.Equal(got[i].Resp.Body, want[i].Resp.Body) {
				t.Fatalf("matrix %d batch item %d: promoted body\n%s\nfast body\n%s", m, i, got[i].Resp.Body, want[i].Resp.Body)
			}
		}
		bev, err := slow.evals.acquire(p.TopoHash, p.Canon, nil)
		if err != nil {
			t.Fatal(err)
		}
		slow.evals.put(p.TopoHash, bev)
		if bev != pinned {
			t.Fatal("the pinned evaluator left the pool: the bodies above prove nothing")
		}
	}

	// sessions: the same churn on both engines, one session pinned to
	// *big.Rat after its open
	open, deltas := sessionTrace(t, rng, 200)
	a, err := fast.Sessions().Open(ctx, open)
	if err != nil {
		t.Fatal(err)
	}
	b, err := slow.Sessions().Open(ctx, open)
	if err != nil {
		t.Fatal(err)
	}
	slow.sessions.table[b.Session].ie.ForceBig(true)
	same := func(step string, x, y *SessionResponse) {
		t.Helper()
		if !bytes.Equal(bytes.Replace(y.Body, []byte(y.Session), []byte(x.Session), 1), x.Body) {
			t.Fatalf("%s: promoted body\n%s\nfast body\n%s", step, y.Body, x.Body)
		}
	}
	for i, d := range deltas {
		x, err := fast.Sessions().Delta(ctx, a.Session, d)
		if err != nil {
			t.Fatal(err)
		}
		y, err := slow.Sessions().Delta(ctx, b.Session, d)
		if err != nil {
			t.Fatal(err)
		}
		same("delta "+d.Op, x, y)
		if !slow.sessions.table[b.Session].ie.Promoted() {
			t.Fatalf("delta %d: the pinned session is not promoted", i)
		}
	}
	x, err := fast.Sessions().Close(ctx, a.Session)
	if err != nil {
		t.Fatal(err)
	}
	y, err := slow.Sessions().Close(ctx, b.Session)
	if err != nil {
		t.Fatal(err)
	}
	same("close", x, y)
}
