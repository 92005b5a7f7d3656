package search

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// cancellingObjective wraps the lex objective so that it cancels its
// context after a fixed number of value computations — a deterministic
// stand-in for an abandoned request cancelling mid-enumeration. The
// fast form is dropped so every state computes its exact value; the
// counter is shared across the scan's workers, so it is atomic.
func cancellingObjective(t *testing.T, c topology.Fabric, fs core.Collection, cancel context.CancelFunc, after int64) *objective {
	t.Helper()
	obj, err := lexObjective(c, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	exact := obj.exact
	obj.fast = nil
	obj.exact = func(a core.Allocation) rational.Vec {
		if seen.Add(1) == after {
			cancel()
		}
		return exact(a)
	}
	return obj
}

// ctxTestInstance is a C_3 instance with 6 flows: 3^6 = 729 full states
// (canonical 122), enough for the periodic ctx poll (every 64 states) to
// fire mid-enumeration while staying fast.
func ctxTestInstance(t *testing.T) (*topology.Clos, core.Collection) {
	t.Helper()
	c, err := topology.NewClos(3)
	if err != nil {
		t.Fatal(err)
	}
	fs := core.Collection{
		{Src: c.Source(1, 1), Dst: c.Dest(1, 1)},
		{Src: c.Source(1, 2), Dst: c.Dest(1, 1)},
		{Src: c.Source(2, 1), Dst: c.Dest(1, 2)},
		{Src: c.Source(2, 2), Dst: c.Dest(2, 1)},
		{Src: c.Source(3, 1), Dst: c.Dest(2, 2)},
		{Src: c.Source(3, 2), Dst: c.Dest(3, 1)},
	}
	return c, fs
}

func TestLexMaxMinPreCancelled(t *testing.T) {
	c, fs := ctxTestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		for _, full := range []bool{false, true} {
			res, err := LexMaxMin(c, fs, Options{Ctx: ctx, Workers: workers, FullSpace: full})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d full=%v: err = %v, want context.Canceled", workers, full, err)
			}
			if res != nil {
				t.Errorf("workers=%d full=%v: partial result %v escaped a cancelled search", workers, full, res)
			}
		}
	}
}

func TestEngineCancelledMidRun(t *testing.T) {
	c, fs := ctxTestInstance(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		obj := cancellingObjective(t, c, fs, cancel, 3)
		res, err := run(c, fs, Options{Ctx: ctx, Workers: workers}, obj, scanBlock)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Errorf("workers=%d: partial incumbent %v escaped", workers, res)
		}
	}
}

// TestEngineSerialLegacyCancelledMidRun: the full space at one worker
// cancels like every other schedule.
func TestEngineSerialLegacyCancelledMidRun(t *testing.T) {
	c, fs := ctxTestInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	obj := cancellingObjective(t, c, fs, cancel, 3)
	res, err := run(c, fs, Options{Ctx: ctx, Workers: 1, FullSpace: true}, obj, scanBlock)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("partial incumbent %v escaped the full-space scan", res)
	}
}

func TestNilCtxMeansBackground(t *testing.T) {
	c, fs := ctxTestInstance(t)
	res, err := LexMaxMin(c, fs, Options{})
	if err != nil {
		t.Fatalf("nil-Ctx search failed: %v", err)
	}
	if res == nil || res.Assignment == nil {
		t.Fatal("nil-Ctx search returned no result")
	}
	// An explicit Background context is bit-identical to the nil default.
	res2, err := LexMaxMin(c, fs, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Allocation.Equal(res.Allocation) || res2.States != res.States {
		t.Error("explicit Background context changed the result")
	}
}

func TestFeasibleRoutingPreCancelled(t *testing.T) {
	in, err := adversary.Theorem42(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		ma, ok, err := FeasibleRouting(ctx, in.Clos, in.Flows, in.MacroRates, 0, workers)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ma != nil || ok {
			t.Errorf("workers=%d: cancelled query reported an answer (%v, %v)", workers, ma, ok)
		}
	}
}

func TestMinMiddlesToRoutePreCancelled(t *testing.T) {
	in, err := adversary.Theorem42(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, ok, err := MinMiddlesToRoute(ctx, in.Clos, in.Flows, in.MacroRates, 5, 0, 1)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ok {
		t.Error("cancelled probe reported success")
	}
}

func TestFeasibleRoutingDeadlinePropagates(t *testing.T) {
	in, err := adversary.Theorem42(3)
	if err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline must surface as DeadlineExceeded, not
	// as a feasibility verdict.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, ok, err := FeasibleRouting(ctx, in.Clos, in.Flows, in.MacroRates, 0, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if ok {
		t.Error("expired query reported an answer")
	}
}
