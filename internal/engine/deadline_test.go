package engine_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/obs"
)

// promotedScenario is a random 4,096-flow scenario with a random
// assignment on a 64×64×2 Clos. Its fill overflows the kernel's int64
// lanes within a few rounds and then runs on *big.Rat for seconds.
func promotedScenario() *codec.Scenario {
	rng := rand.New(rand.NewSource(1))
	s := &codec.Scenario{Tors: 64, Servers: 64, Middles: 2}
	for i := 0; i < 4096; i++ {
		s.Flows = append(s.Flows, codec.FlowJSON{
			SrcSwitch: 1 + rng.Intn(64), SrcServer: 1 + rng.Intn(64),
			DstSwitch: 1 + rng.Intn(64), DstServer: 1 + rng.Intn(64),
		})
		s.Assignment = append(s.Assignment, 1+rng.Intn(2))
	}
	return s
}

// TestPromotedFillHonorsDeadline: evaluate and doom of a scenario whose
// fill is promoted to *big.Rat return context.DeadlineExceeded soon
// after a 50 ms deadline, and the pooled evaluator the cancelled fills
// ran on then evaluates the scenario byte-identically to a fresh engine.
func TestPromotedFillHonorsDeadline(t *testing.T) {
	s := promotedScenario()
	reg := obs.NewRegistry()
	e := engine.New(engine.Options{SearchWorkers: 1, Obs: &obs.Obs{Reg: reg}})
	for _, op := range []string{engine.OpEvaluate, engine.OpDoom} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		resp, err := e.Run(ctx, engine.Request{Op: op, Scenario: s})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v (body of %d bytes), want context.DeadlineExceeded", op, err, len(bodyOf(resp)))
		}
		if elapsed > time.Second {
			t.Errorf("%s: returned %v after the start, more than 1s", op, elapsed)
		}
		t.Logf("%s: returned after %v under a 50ms deadline", op, elapsed)
	}

	got, err := e.Run(context.Background(), engine.Request{Op: engine.OpEvaluate, Scenario: s})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["core.block_promotions"]; n != 1 {
		t.Fatalf("core.block_promotions = %d, want 1: the scenario's fill was not promoted", n)
	}
	if n := snap.Counters["engine.evaluator_builds"]; n != 1 {
		t.Fatalf("engine.evaluator_builds = %d, want 1: the last evaluate did not reuse the cancelled fills' evaluator", n)
	}
	want, err := engine.New(engine.Options{SearchWorkers: 1}).Run(context.Background(), engine.Request{Op: engine.OpEvaluate, Scenario: s})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatal("evaluate after the cancelled fills differs from a fresh engine's")
	}
}

func bodyOf(r *engine.Response) []byte {
	if r == nil {
		return nil
	}
	return r.Body
}
