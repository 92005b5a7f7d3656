package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/obs"
)

func sessionEngine(opts engine.Options) *engine.Engine {
	if opts.Obs == nil {
		opts.Obs = &obs.Obs{Reg: obs.NewRegistry()}
	}
	return engine.New(opts)
}

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
	Arrived    *int     `json:"arrived"`
	Closed     bool     `json:"closed"`
	Deltas     int      `json:"deltas"`
}

func view(t testing.TB, r *engine.SessionResponse) sessionView {
	t.Helper()
	var v sessionView
	if err := json.Unmarshal(r.Body, &v); err != nil {
		t.Fatalf("session body %s: %v", r.Body, err)
	}
	if v.Session != r.Session {
		t.Fatalf("body names session %q, response %q", v.Session, r.Session)
	}
	return v
}

// sessionScenario is a 4-ToR, 2-server, 2-middle Clos with two flows
// deliberately listed in non-canonical order.
func sessionScenario() *codec.Scenario {
	return &codec.Scenario{
		Tors: 4, Servers: 2, Middles: 2,
		Flows: []codec.FlowJSON{
			{SrcSwitch: 3, SrcServer: 1, DstSwitch: 4, DstServer: 1},
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1},
		},
		Assignment: []int{2, 1},
	}
}

// TestSessionMatchesOneShotEvaluate is the session contract: after any
// delta sequence, the session response's hash, assignment, rates, and
// throughput equal what a one-shot evaluate of the end state reports.
func TestSessionMatchesOneShotEvaluate(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()

	resp, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	v := view(t, resp)
	if v.Op != engine.OpSessionOpen || v.Seq != 0 {
		t.Fatalf("open response op=%q seq=%d", v.Op, v.Seq)
	}
	// Session flow IDs are assigned in canonical order: id 0 is the
	// (1,1)->(2,1) flow, id 1 the (3,1)->(4,1) flow.
	if len(v.Flows) != 2 || v.Flows[0] != 0 || v.Flows[1] != 1 {
		t.Fatalf("open flow ids %v", v.Flows)
	}

	deltas := []string{
		`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":2,"dstSwitch":3,"dstServer":2},"middle":1}`,
		`{"op":"arrive","flow":{"srcSwitch":2,"srcServer":1,"dstSwitch":1,"dstServer":1},"middle":2}`,
		`{"op":"reroute","id":0,"middle":2}`,
		`{"op":"depart","id":1}`,
		`{"op":"arrive","flow":{"srcSwitch":4,"srcServer":2,"dstSwitch":2,"dstServer":2},"middle":1}`,
		`{"op":"reroute","id":3,"middle":1}`,
	}
	var last sessionView
	for i, raw := range deltas {
		d, err := codec.DecodeDelta([]byte(raw))
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		r, err := eng.Sessions().Delta(ctx, resp.Session, d)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if last = view(t, r); last.Seq != i+1 {
			t.Fatalf("delta %d: seq %d", i, last.Seq)
		}
	}
	// Arrivals got ids 2, 3, 4; id 1 departed. Live: 0, 2, 3, 4.
	// End state: flow 0 on middle 2 (rerouted), flow 2 on middle 1,
	// flow 3 on middle 1 (rerouted from 2), flow 4 on middle 1.
	end := &codec.Scenario{
		Tors: 4, Servers: 2, Middles: 2,
		Flows: []codec.FlowJSON{
			{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 1}, // id 0
			{SrcSwitch: 1, SrcServer: 2, DstSwitch: 3, DstServer: 2}, // id 2
			{SrcSwitch: 2, SrcServer: 1, DstSwitch: 1, DstServer: 1}, // id 3
			{SrcSwitch: 4, SrcServer: 2, DstSwitch: 2, DstServer: 2}, // id 4
		},
		Assignment: []int{2, 1, 1, 1},
	}
	oneShot, err := eng.Run(ctx, engine.Request{Op: engine.OpEvaluate, Scenario: end})
	if err != nil {
		t.Fatal(err)
	}
	var ev struct {
		Hash       string   `json:"hash"`
		Assignment []int    `json:"assignment"`
		Rates      []string `json:"rates"`
		Throughput string   `json:"throughput"`
	}
	if err := json.Unmarshal(oneShot.Body, &ev); err != nil {
		t.Fatal(err)
	}
	if last.Hash != ev.Hash {
		t.Fatalf("session hash %s != one-shot %s", last.Hash, ev.Hash)
	}
	if fmt.Sprint(last.Assignment) != fmt.Sprint(ev.Assignment) {
		t.Fatalf("session assignment %v != one-shot %v", last.Assignment, ev.Assignment)
	}
	if fmt.Sprint(last.Rates) != fmt.Sprint(ev.Rates) {
		t.Fatalf("session rates %v != one-shot %v", last.Rates, ev.Rates)
	}
	if last.Throughput != ev.Throughput {
		t.Fatalf("session throughput %s != one-shot %s", last.Throughput, ev.Throughput)
	}

	r, err := eng.Sessions().Close(ctx, resp.Session)
	if err != nil {
		t.Fatal(err)
	}
	if closed := view(t, r); !closed.Closed || closed.Deltas != len(deltas) {
		t.Fatalf("close response %+v", closed)
	}
}

// TestSessionArrivedIDAndEmptyOpen: an empty session admits flows one
// at a time, reporting each new ID; draining it back to empty is legal.
func TestSessionArrivedIDAndEmptyOpen(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	resp, err := eng.Sessions().Open(ctx, &codec.Scenario{Tors: 4, Servers: 2, Middles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := view(t, resp); len(v.Flows) != 0 || v.Throughput != "0" {
		t.Fatalf("empty open response %s", resp.Body)
	}
	d, _ := codec.DecodeDelta([]byte(`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},"middle":1}`))
	r, err := eng.Sessions().Delta(ctx, resp.Session, d)
	if err != nil {
		t.Fatal(err)
	}
	v := view(t, r)
	if v.Arrived == nil || *v.Arrived != 0 {
		t.Fatalf("arrive response did not report id 0: %s", r.Body)
	}
	if len(v.Rates) != 1 || v.Rates[0] != "1" {
		t.Fatalf("lone flow rates %v", v.Rates)
	}
	d, _ = codec.DecodeDelta([]byte(`{"op":"depart","id":0}`))
	r, err = eng.Sessions().Delta(ctx, resp.Session, d)
	if err != nil {
		t.Fatal(err)
	}
	if v := view(t, r); len(v.Flows) != 0 || v.Arrived != nil {
		t.Fatalf("drained session response %s", r.Body)
	}
}

// TestSessionDeltaErrorsLeaveStateIntact: structural and semantic delta
// failures return errors without mutating the session.
func TestSessionDeltaErrorsLeaveStateIntact(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	resp, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`{"op":"arrive","flow":{"srcSwitch":9,"srcServer":1,"dstSwitch":1,"dstServer":1},"middle":1}`,
		`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},"middle":7}`,
		`{"op":"reroute","id":0,"middle":9}`,
		`{"op":"reroute","id":42,"middle":1}`,
		`{"op":"depart","id":42}`,
	}
	for i, raw := range bad {
		var d codec.Delta
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Sessions().Delta(ctx, resp.Session, &d); err == nil {
			t.Fatalf("bad delta %d accepted", i)
		}
	}
	// Session still live and unchanged.
	d, _ := codec.DecodeDelta([]byte(`{"op":"reroute","id":0,"middle":1}`))
	r, err := eng.Sessions().Delta(ctx, resp.Session, d)
	if err != nil {
		t.Fatal(err)
	}
	if v := view(t, r); v.Seq != 1 {
		t.Fatalf("failed deltas advanced seq: %d", v.Seq)
	}
}

// TestSessionTTLExpiry: a session idle past the TTL is evicted lazily,
// as a session.expired span: a leaf under the request that evicted it,
// capped like the request's other leaves, or the root of its own trace
// on the journal when no request evicted it. A touched session
// survives. Uses the injected clock.
func TestSessionTTLExpiry(t *testing.T) {
	var journal bytes.Buffer
	eng := sessionEngine(engine.Options{SessionTTL: time.Minute, Obs: &obs.Obs{Reg: obs.NewRegistry(), J: obs.NewJournal(&journal)}})
	ctx := context.Background()
	now := time.Unix(1000, 0)
	eng.Sessions().SetClock(func() time.Time { return now })

	idle, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	live, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(40 * time.Second)
	d, _ := codec.DecodeDelta([]byte(`{"op":"reroute","id":0,"middle":1}`))
	if _, err := eng.Sessions().Delta(ctx, live.Session, d); err != nil {
		t.Fatal(err)
	}
	now = now.Add(40 * time.Second) // idle is 80s old, live 40s
	tr := obs.NewTrace(nil, nil)
	root, tctx := tr.Start(ctx, "server.request")
	if _, err := eng.Sessions().Delta(tctx, live.Session, d); err != nil {
		t.Fatalf("touched session expired: %v", err)
	}
	root.End()
	expired := 0
	for _, sp := range tr.Finish().Records() {
		if sp.Name != "session.expired" {
			continue
		}
		expired++
		if sp.Parent != 1 || len(sp.Attrs) != 1 || sp.Attrs[0].Value() != idle.Session {
			t.Errorf("session.expired span %+v, want one for %s under the request", sp, idle.Session)
		}
	}
	if expired != 1 {
		t.Errorf("%d session.expired spans, want 1", expired)
	}
	if _, err := eng.Sessions().Delta(ctx, idle.Session, d); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("idle session: got %v, want ErrSessionNotFound", err)
	}
	st := eng.Sessions().Stats()
	if st.Open != 1 || st.Expired != 1 || st.Opened != 2 {
		t.Fatalf("stats %+v", st)
	}

	// A request that has stored its 512 leaves drops the expiry too.
	if _, err := eng.Sessions().Open(ctx, sessionScenario()); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	tr = obs.NewTrace(nil, nil)
	root, tctx = tr.Start(ctx, "server.request")
	for range 512 {
		leaf := obs.Start(tctx, "leaf")
		leaf.End()
	}
	last, err := eng.Sessions().Open(tctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	log := tr.Finish()
	for _, sp := range log.Records() {
		if sp.Name == "session.expired" {
			t.Errorf("session.expired stored past the leaf cap: %+v", sp)
		}
	}
	if log.Dropped() != 3 {
		t.Errorf("dropped %d leaves, want 3: two expiries and the open", log.Dropped())
	}

	// Outside a request, each expiry roots a trace on the journal.
	journal.Reset()
	now = now.Add(2 * time.Minute)
	if st := eng.Sessions().Stats(); st.Open != 0 || st.Expired != 4 {
		t.Fatalf("stats %+v, want the last session expired", st)
	}
	var line struct {
		Fields struct {
			Name   string         `json:"name"`
			Parent int64          `json:"parent"`
			Attrs  map[string]any `json:"attrs"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(journal.Bytes(), &line); err != nil {
		t.Fatalf("journal %q: %v", journal.String(), err)
	}
	if f := line.Fields; f.Name != "session.expired" || f.Parent != 0 || f.Attrs["session"] != last.Session {
		t.Errorf("journaled %+v, want the root session.expired of %s", f, last.Session)
	}
}

// TestSessionTableBound: the table refuses opens past MaxSessions and
// admits again after a close.
func TestSessionTableBound(t *testing.T) {
	eng := sessionEngine(engine.Options{MaxSessions: 3})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 3; i++ {
		r, err := eng.Sessions().Open(ctx, sessionScenario())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.Session)
	}
	if _, err := eng.Sessions().Open(ctx, sessionScenario()); !errors.Is(err, engine.ErrSessionTableFull) {
		t.Fatalf("4th open: got %v, want ErrSessionTableFull", err)
	}
	if _, err := eng.Sessions().Close(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().Open(ctx, sessionScenario()); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	st := eng.Sessions().Stats()
	if st.Open != 3 || st.Capacity != 3 || st.Closed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSessionCloseIdempotency: closing twice or touching a closed
// session reports ErrSessionNotFound, as does a bogus ID.
func TestSessionCloseIdempotency(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	r, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().Close(ctx, r.Session); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().Close(ctx, r.Session); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("double close: %v", err)
	}
	d, _ := codec.DecodeDelta([]byte(`{"op":"depart","id":0}`))
	if _, err := eng.Sessions().Delta(ctx, r.Session, d); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("delta on closed session: %v", err)
	}
	if _, err := eng.Sessions().Close(ctx, "no-such-session"); !errors.Is(err, engine.ErrSessionNotFound) {
		t.Fatalf("bogus close: %v", err)
	}
}

// TestSessionOpsListedButNotComputable: the session op family appears
// in Ops() yet Prepare routes callers to the session API.
func TestSessionOpsListedButNotComputable(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	listed := map[string]bool{}
	for _, op := range eng.Ops() {
		listed[op] = true
	}
	for _, op := range []string{engine.OpSessionOpen, engine.OpSessionDelta, engine.OpSessionClose} {
		if !listed[op] {
			t.Errorf("%s missing from Ops()", op)
		}
		if _, err := eng.Prepare(engine.Request{Op: op, Scenario: sessionScenario()}); err == nil {
			t.Errorf("Prepare accepted stateful op %s", op)
		}
	}
}

// TestSessionConcurrentIsolation: concurrent sessions mutate
// independently; run under -race this also proves the table locking.
func TestSessionConcurrentIsolation(t *testing.T) {
	eng := sessionEngine(engine.Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := eng.Sessions().Open(ctx, sessionScenario())
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 10; i++ {
				m := 1 + (g+i)%2
				d := &codec.Delta{Op: codec.DeltaReroute, ID: 0, Middle: m}
				if _, err := eng.Sessions().Delta(ctx, r.Session, d); err != nil {
					errs <- err
					return
				}
			}
			if _, err := eng.Sessions().Close(ctx, r.Session); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.Sessions().Stats()
	if st.Open != 0 || st.Opened != 8 || st.Closed != 8 || st.Deltas != 80 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSessionCounters: the session table instruments opens, deltas,
// closes, expiries, and the open gauge.
func TestSessionCounters(t *testing.T) {
	o := &obs.Obs{Reg: obs.NewRegistry()}
	eng := sessionEngine(engine.Options{Obs: o, SessionTTL: time.Minute})
	ctx := context.Background()
	now := time.Unix(0, 0)
	eng.Sessions().SetClock(func() time.Time { return now })

	r, err := eng.Sessions().Open(ctx, sessionScenario())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := codec.DecodeDelta([]byte(`{"op":"reroute","id":0,"middle":1}`))
	if _, err := eng.Sessions().Delta(ctx, r.Session, d); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Hour)
	eng.Sessions().Stats() // prunes

	snap := o.Reg.Snapshot()
	for name, want := range map[string]int64{
		"engine.sessions.opened":  1,
		"engine.sessions.deltas":  1,
		"engine.sessions.expired": 1,
		"engine.sessions.closed":  0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["engine.sessions.open"]; got != 0 {
		t.Errorf("open gauge = %d after expiry", got)
	}
	// The session's incremental evaluator is instrumented through the
	// same registry.
	if snap.Counters["core.delta_fills"] == 0 {
		t.Error("session deltas did not drive core.delta_fills")
	}
}
