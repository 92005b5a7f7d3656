package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// The session op family. These ops are stateful — a session holds a
// live scenario server-side and mutates it one delta at a time through
// a core.IncrementalEvaluator — so they are served through the typed
// Sessions API (Engine.Sessions()), not the Prepare/Compute registry:
// Prepare rejects them, and nothing about them is cacheable or
// coalescable. They appear in Ops() so transports can enumerate the
// full surface.
const (
	OpSessionOpen  = "session:open"
	OpSessionDelta = "session:delta"
	OpSessionClose = "session:close"
)

// Session table defaults.
const (
	// DefaultMaxSessions bounds the number of concurrently open
	// sessions.
	DefaultMaxSessions = 256
	// DefaultSessionTTL is the idle lifetime of a session: one untouched
	// for longer is evicted lazily on the next table access.
	DefaultSessionTTL = 5 * time.Minute
)

// Session-table sentinel errors; transports map them to status codes
// (429 and 404 respectively).
var (
	ErrSessionTableFull = errors.New("engine: session table full")
	ErrSessionNotFound  = errors.New("engine: session not found or expired")
)

// sessionFlow is one live flow of a session: its stable wire ID, its
// JSON form (for rebuilding the canonical scenario), its current
// middle, and its handle inside the incremental evaluator.
type sessionFlow struct {
	id     int
	fj     codec.FlowJSON
	middle int
	handle core.FlowID
}

// Session is one open scenario being mutated by deltas. All access goes
// through its mutex: deltas on one session serialize, sessions mutate
// independently.
type Session struct {
	mu       sync.Mutex
	id       string
	family   string
	tors     int
	servers  int
	middles  int
	fab      topology.Fabric
	ie       *core.IncrementalEvaluator
	flows    []sessionFlow // insertion order, parallel to the evaluator's
	nextFlow int
	seq      int
	lastUsed time.Time
}

// SessionResponse reports a session's state after open or a delta. The
// scenario view is canonical: Flows lists the session flow IDs in
// canonical scenario order, Assignment and Rates are parallel to it,
// and Hash is the codec.CanonicalHash of the current state — equal to
// the hash a one-shot evaluate of the same end state reports, which is
// what makes a replayed delta sequence directly comparable to
// /v1/evaluate.
type SessionResponse struct {
	Session    string   `json:"session"`
	Op         string   `json:"op"`
	Seq        int      `json:"seq"`
	Hash       string   `json:"hash"`
	Flows      []int    `json:"flows"`
	Assignment []int    `json:"assignment,omitempty"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
	// Arrived is the session flow ID assigned by an arrive delta.
	Arrived *int `json:"arrived,omitempty"`
}

// SessionCloseResponse acknowledges a close.
type SessionCloseResponse struct {
	Session string `json:"session"`
	Closed  bool   `json:"closed"`
	Deltas  int    `json:"deltas"`
}

// SessionStats is the session gauge block of /v1/stats.
type SessionStats struct {
	Open     int   `json:"open"`
	Capacity int   `json:"capacity"`
	TTLMs    int64 `json:"ttlMs"`
	Opened   int64 `json:"opened"`
	Closed   int64 `json:"closed"`
	Expired  int64 `json:"expired"`
	Deltas   int64 `json:"deltas"`
}

// Sessions is the bounded, TTL-evicting session table. Safe for
// concurrent use. Lock order: the table's mu before any session's mu,
// never the reverse — pruneLocked and lookup take s.mu under ss.mu, so
// a path holding s.mu must not take ss.mu (the delta counter is atomic
// for that reason).
type Sessions struct {
	mu      sync.Mutex
	table   map[string]*Session
	fabrics *fabricCache // shared with the engine's ops
	max     int
	ttl     time.Duration
	now     func() time.Time

	opened, closed, expired int64
	deltas                  atomic.Int64

	o        *obs.Obs
	cOpened  *obs.Counter
	cClosed  *obs.Counter
	cExpired *obs.Counter
	cDeltas  *obs.Counter
	gOpen    *obs.Gauge
}

func newSessions(opts Options, fabrics *fabricCache) *Sessions {
	max := opts.MaxSessions
	if max <= 0 {
		max = DefaultMaxSessions
	}
	ttl := opts.SessionTTL
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	reg := opts.Obs.Registry()
	return &Sessions{
		table:    make(map[string]*Session),
		fabrics:  fabrics,
		max:      max,
		ttl:      ttl,
		now:      time.Now,
		o:        opts.Obs,
		cOpened:  reg.Counter("engine.sessions.opened"),
		cClosed:  reg.Counter("engine.sessions.closed"),
		cExpired: reg.Counter("engine.sessions.expired"),
		cDeltas:  reg.Counter("engine.sessions.deltas"),
		gOpen:    reg.Gauge("engine.sessions.open"),
	}
}

// SetClock injects the time source — the TTL tests' hook. Not for
// production use.
func (ss *Sessions) SetClock(now func() time.Time) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.now = now
}

// pruneLocked evicts every session idle past the TTL. Callers hold
// ss.mu.
func (ss *Sessions) pruneLocked() {
	cutoff := ss.now().Add(-ss.ttl)
	for id, s := range ss.table {
		s.mu.Lock()
		stale := s.lastUsed.Before(cutoff)
		s.mu.Unlock()
		if stale {
			delete(ss.table, id)
			ss.expired++
			ss.cExpired.Inc()
			ss.o.Journal().Emit("engine.session_expired", obs.F{"session": id})
		}
	}
	ss.gOpen.Set(int64(len(ss.table)))
}

// Open admits a new session holding the scenario's flow set. The
// scenario is canonicalized first: session flow IDs 0..n-1 are assigned
// in canonical order, so they match the positions a one-shot evaluate
// of the same scenario reports. Demands are dropped — a session tracks
// routing and allocation, and demands are not part of the evaluate
// state the hashes commit to. A missing assignment defaults to middle 1
// for every flow, mirroring the evaluate op.
func (ss *Sessions) Open(ctx context.Context, scen *codec.Scenario) (*SessionResponse, error) {
	sp, _ := obs.StartSpan(ctx, "session.open")
	defer sp.End()
	if scen == nil {
		return nil, fmt.Errorf("engine: session open without a scenario")
	}
	stripped := *scen
	stripped.Demands = nil
	canon, err := codec.Canonical(&stripped)
	if err != nil {
		return nil, err
	}
	fab, err := ss.fabrics.get(shapeOf(canon))
	if err != nil {
		return nil, err
	}
	s := &Session{
		family:  canon.Topology,
		tors:    canon.Tors,
		servers: canon.Servers,
		middles: canon.Middles,
		fab:     fab,
		ie:      core.NewIncrementalEvaluator(fab),
	}
	s.ie.Instrument(ss.o)
	for i, fj := range canon.Flows {
		m := 1
		if canon.Assignment != nil {
			m = canon.Assignment[i]
		}
		f := core.Flow{
			Src: fab.Source(fj.SrcSwitch, fj.SrcServer),
			Dst: fab.Dest(fj.DstSwitch, fj.DstServer),
		}
		h, err := s.ie.Arrive(f, m)
		if err != nil {
			return nil, fmt.Errorf("engine: session open flow %d: %w", i, err)
		}
		s.flows = append(s.flows, sessionFlow{id: s.nextFlow, fj: fj, middle: m, handle: h})
		s.nextFlow++
	}

	idBytes := make([]byte, 8)
	if _, err := rand.Read(idBytes); err != nil {
		return nil, fmt.Errorf("engine: session id: %w", err)
	}
	s.id = hex.EncodeToString(idBytes)

	ss.mu.Lock()
	ss.pruneLocked()
	if len(ss.table) >= ss.max {
		ss.mu.Unlock()
		return nil, ErrSessionTableFull
	}
	s.lastUsed = ss.now()
	ss.table[s.id] = s
	ss.opened++
	ss.cOpened.Inc()
	ss.gOpen.Set(int64(len(ss.table)))
	ss.mu.Unlock()

	sp.Attr("session", s.id).Attr("flows", len(s.flows))
	ss.o.Journal().Emit("engine.session_opened", obs.F{"session": s.id, "flows": len(s.flows)})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.responseLocked(OpSessionOpen, nil)
}

// lookup fetches a live session and touches its idle timer.
func (ss *Sessions) lookup(id string) (*Session, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.pruneLocked()
	s, ok := ss.table[id]
	if !ok {
		return nil, ErrSessionNotFound
	}
	s.mu.Lock()
	s.lastUsed = ss.now()
	s.mu.Unlock()
	return s, nil
}

// Delta applies one mutation to a session and reports the resulting
// state. Structural validation failures (unknown op, out-of-range
// indices) and semantic ones (no live flow with the ID) leave the
// session unchanged.
func (ss *Sessions) Delta(ctx context.Context, id string, d *codec.Delta) (*SessionResponse, error) {
	sp, _ := obs.StartSpan(ctx, "session.delta")
	defer sp.End()
	s, err := ss.lookup(id)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(s.tors, s.servers, s.middles); err != nil {
		return nil, err
	}
	sp.Attr("session", id).Attr("op", d.Op)

	s.mu.Lock()
	defer s.mu.Unlock()
	var arrived *int
	switch d.Op {
	case codec.DeltaArrive:
		f := core.Flow{
			Src: s.fab.Source(d.Flow.SrcSwitch, d.Flow.SrcServer),
			Dst: s.fab.Dest(d.Flow.DstSwitch, d.Flow.DstServer),
		}
		h, err := s.ie.Arrive(f, d.Middle)
		if err != nil {
			return nil, fmt.Errorf("engine: arrive: %w", err)
		}
		fid := s.nextFlow
		s.nextFlow++
		s.flows = append(s.flows, sessionFlow{id: fid, fj: *d.Flow, middle: d.Middle, handle: h})
		arrived = &fid
	case codec.DeltaDepart:
		i, err := s.findLocked(d.ID)
		if err != nil {
			return nil, err
		}
		if err := s.ie.Depart(s.flows[i].handle); err != nil {
			return nil, fmt.Errorf("engine: depart: %w", err)
		}
		s.flows = append(s.flows[:i], s.flows[i+1:]...)
	case codec.DeltaReroute:
		i, err := s.findLocked(d.ID)
		if err != nil {
			return nil, err
		}
		if err := s.ie.Reroute(s.flows[i].handle, d.Middle); err != nil {
			return nil, fmt.Errorf("engine: reroute: %w", err)
		}
		s.flows[i].middle = d.Middle
	}
	s.seq++
	ss.deltas.Add(1)
	ss.cDeltas.Inc()
	return s.responseLocked(OpSessionDelta, arrived)
}

// Close removes a session. Closing twice (or an expired session)
// returns ErrSessionNotFound.
func (ss *Sessions) Close(ctx context.Context, id string) (*SessionCloseResponse, error) {
	sp, _ := obs.StartSpan(ctx, "session.close")
	defer sp.End()
	ss.mu.Lock()
	s, ok := ss.table[id]
	if ok {
		delete(ss.table, id)
		ss.closed++
		ss.cClosed.Inc()
	}
	ss.gOpen.Set(int64(len(ss.table)))
	ss.mu.Unlock()
	if !ok {
		return nil, ErrSessionNotFound
	}
	sp.Attr("session", id)
	ss.o.Journal().Emit("engine.session_closed", obs.F{"session": id, "deltas": s.seq})
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SessionCloseResponse{Session: id, Closed: true, Deltas: s.seq}, nil
}

// Stats snapshots the table for /v1/stats.
func (ss *Sessions) Stats() SessionStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.pruneLocked()
	return SessionStats{
		Open:     len(ss.table),
		Capacity: ss.max,
		TTLMs:    ss.ttl.Milliseconds(),
		Opened:   ss.opened,
		Closed:   ss.closed,
		Expired:  ss.expired,
		Deltas:   ss.deltas.Load(),
	}
}

// findLocked resolves a session flow ID to its index. Callers hold
// s.mu.
func (s *Session) findLocked(id int) (int, error) {
	for i := range s.flows {
		if s.flows[i].id == id {
			return i, nil
		}
	}
	return -1, fmt.Errorf("engine: no live session flow with id %d", id)
}

// responseLocked rebuilds the canonical scenario view of the current
// state and reads the rates off the evaluator. Callers hold s.mu.
func (s *Session) responseLocked(op string, arrived *int) (*SessionResponse, error) {
	scen := &codec.Scenario{
		Topology: s.family,
		Tors:     s.tors,
		Servers:  s.servers,
		Middles:  s.middles,
	}
	if n := len(s.flows); n > 0 {
		scen.Flows = make([]codec.FlowJSON, n)
		scen.Assignment = make([]int, n)
		for i, sf := range s.flows {
			scen.Flows[i] = sf.fj
			scen.Assignment[i] = sf.middle
		}
	}
	form, err := codec.Canonicalize(scen)
	if err != nil {
		return nil, err
	}
	perm := form.Perm
	resp := &SessionResponse{
		Session:    s.id,
		Op:         op,
		Seq:        s.seq,
		Hash:       hex.EncodeToString(form.Hash[:]),
		Flows:      make([]int, len(perm)),
		Assignment: form.Scenario.Assignment,
		Rates:      make([]string, len(perm)),
		Throughput: "0",
		Arrived:    arrived,
	}
	alloc := make(rational.Vec, len(perm))
	for i, fi := range perm {
		sf := s.flows[fi]
		r, err := s.ie.Rate(sf.handle)
		if err != nil {
			return nil, fmt.Errorf("engine: session state diverged: %w", err)
		}
		resp.Flows[i] = sf.id
		resp.Rates[i] = rational.String(r)
		alloc[i] = r
	}
	if len(alloc) > 0 {
		resp.Throughput = rational.String(core.Throughput(alloc))
	}
	return resp, nil
}
