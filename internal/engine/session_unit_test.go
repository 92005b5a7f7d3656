package engine

import (
	"context"
	"testing"
	"time"

	"closnet/internal/codec"
)

// TestSessionBusyDoesNotStallOthers: while one session is busy (its
// lock held, as by a slow delta), a delta on another session, an open
// and a stats read all complete. Pruning and lookup read the idle clock
// without taking any session's lock.
func TestSessionBusyDoesNotStallOthers(t *testing.T) {
	eng := New(Options{})
	ss := eng.Sessions()
	ctx := context.Background()
	scen := &codec.Scenario{
		Tors: 4, Servers: 2, Middles: 2,
		Flows:      []codec.FlowJSON{{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1}},
		Assignment: []int{1},
	}
	a, err := ss.Open(ctx, scen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ss.Open(ctx, scen)
	if err != nil {
		t.Fatal(err)
	}
	ss.mu.Lock()
	busy := ss.table[a.Session]
	ss.mu.Unlock()
	busy.mu.Lock()
	defer busy.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		if _, err := ss.Delta(ctx, b.Session, &codec.Delta{Op: codec.DeltaReroute, ID: 0, Middle: 2}); err != nil {
			done <- err
			return
		}
		if _, err := ss.Open(ctx, scen); err != nil {
			done <- err
			return
		}
		ss.Stats()
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a delta, an open and a stats read on other sessions stalled behind a busy session")
	}
}

// TestSessionArriveCaps: an arrive that would take the live set past
// codec.MaxFlows flows or codec.MaxFlowPaths flow paths is refused and
// leaves the session unchanged. On Clos 2×1×4096 the 32nd flow reaches
// the flow-path cap exactly and the 33rd passes it.
func TestSessionArriveCaps(t *testing.T) {
	const middles = 4096
	fits := codec.MaxFlowPaths / middles
	eng := New(Options{})
	ss := eng.Sessions()
	ctx := context.Background()
	r, err := ss.Open(ctx, &codec.Scenario{Tors: 2, Servers: 1, Middles: middles})
	if err != nil {
		t.Fatal(err)
	}
	flow := codec.FlowJSON{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1}
	arrive := &codec.Delta{Op: codec.DeltaArrive, Flow: &flow, Middle: 1}
	for i := 0; i < fits; i++ {
		if _, err := ss.Delta(ctx, r.Session, arrive); err != nil {
			t.Fatalf("arrive %d of %d: %v", i+1, fits, err)
		}
	}
	if _, err := ss.Delta(ctx, r.Session, arrive); err == nil {
		t.Fatalf("arrive %d past the cap of %d flow paths accepted", fits+1, codec.MaxFlowPaths)
	}
	s := ss.table[r.Session]
	if got := len(s.flows); got != fits || s.ie.Len() != fits || s.seq != fits {
		t.Fatalf("refused arrive changed the session: %d flows, %d in the evaluator, seq %d; want %d", got, s.ie.Len(), s.seq, fits)
	}
	// The session still serves deltas.
	if _, err := ss.Delta(ctx, r.Session, &codec.Delta{Op: codec.DeltaDepart, ID: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Delta(ctx, r.Session, arrive); err != nil {
		t.Fatalf("arrive back under the cap: %v", err)
	}
}
