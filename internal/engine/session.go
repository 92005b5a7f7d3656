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

// Session is one open scenario being mutated by deltas. All access to
// the scenario goes through its mutex: deltas on one session serialize,
// sessions mutate independently. The idle clock is atomic, so the table
// reads it without the mutex.
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
	lastUsed atomic.Int64 // UnixNano of the last lookup

	// Response scratch: the flow IDs and rates in canonical order.
	ids  []int
	lane []rational.Rat64
}

// SessionResponse is the outcome of a session open, delta or close: the
// session's ID and the encoded response body. An open or delta body
// reports the session's state in canonical scenario order
// (codec.SessionBody): the session flow IDs, their assignment and rates,
// the throughput, and the codec.CanonicalHash of the state — equal to
// the hash a one-shot evaluate of the same end state reports, which is
// what makes a replayed delta sequence directly comparable to
// /v1/evaluate. A close body acknowledges the close
// (codec.SessionCloseBody).
type SessionResponse struct {
	Session string
	Body    []byte
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
// concurrent use. No path holds the table's mu and a session's mu at
// once: pruning and lookup read and touch a session's idle clock
// atomically, and open and close take s.mu only after releasing ss.mu.
// A delta holds its session's mu through the refill and the response,
// so a slow delta delays only its own session, never the table. (The
// delta counter is atomic for the same reason.)
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
	cutoff := ss.now().Add(-ss.ttl).UnixNano()
	for id, s := range ss.table {
		if s.lastUsed.Load() < cutoff {
			delete(ss.table, id)
			ss.expired++
			ss.cExpired.Inc()
			if j := ss.o.Journal(); j != nil {
				j.Emit("engine.session_expired", obs.F{"session": id})
			}
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
	sp := obs.Start(ctx, "session.open")
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
	s.lastUsed.Store(ss.now().UnixNano())
	ss.table[s.id] = s
	ss.opened++
	ss.cOpened.Inc()
	ss.gOpen.Set(int64(len(ss.table)))
	ss.mu.Unlock()

	sp.Str("session", s.id).Int("flows", len(s.flows))
	if j := ss.o.Journal(); j != nil {
		j.Emit("engine.session_opened", obs.F{"session": s.id, "flows": len(s.flows)})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.responseLocked(OpSessionOpen, -1)
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
	s.lastUsed.Store(ss.now().UnixNano())
	return s, nil
}

// Delta applies one mutation to a session and reports the resulting
// state. Structural validation failures (unknown op, out-of-range
// indices), semantic ones (no live flow with the ID) and an arrive
// past the scenario size caps (codec.CheckFlows) leave the session
// unchanged.
func (ss *Sessions) Delta(ctx context.Context, id string, d *codec.Delta) (*SessionResponse, error) {
	sp := obs.Start(ctx, "session.delta")
	defer sp.End()
	s, err := ss.lookup(id)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(s.tors, s.servers, s.middles); err != nil {
		return nil, err
	}
	sp.Str("session", id).Str("op", d.Op)

	s.mu.Lock()
	defer s.mu.Unlock()
	arrived := -1
	switch d.Op {
	case codec.DeltaArrive:
		if err := codec.CheckFlows(len(s.flows)+1, s.middles); err != nil {
			return nil, fmt.Errorf("engine: arrive: %w", err)
		}
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
		arrived = fid
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
func (ss *Sessions) Close(ctx context.Context, id string) (*SessionResponse, error) {
	sp := obs.Start(ctx, "session.close")
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
	sp.Str("session", id)
	if j := ss.o.Journal(); j != nil {
		j.Emit("engine.session_closed", obs.F{"session": id, "deltas": s.seq})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SessionResponse{Session: id, Body: codec.SessionCloseBody(id, s.seq)}, nil
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
// state and writes its body, the rates straight from the evaluator's
// Rat64 lane unless the last fill was promoted to *big.Rat. arrived is
// the ID an arrive delta assigned, or -1. Callers hold s.mu.
func (s *Session) responseLocked(op string, arrived int) (*SessionResponse, error) {
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
	s.ids = s.ids[:0]
	for _, fi := range form.Perm {
		s.ids = append(s.ids, s.flows[fi].id)
	}
	var rates codec.Rates
	if s.ie.Promoted() {
		alloc := make(core.Allocation, len(form.Perm))
		for i, fi := range form.Perm {
			if alloc[i], err = s.ie.Rate(s.flows[fi].handle); err != nil {
				return nil, fmt.Errorf("engine: session state diverged: %w", err)
			}
		}
		rates = codec.Rates{Big: alloc}
	} else {
		all := s.ie.Rates64()
		s.lane = s.lane[:0]
		for _, fi := range form.Perm {
			s.lane = append(s.lane, all[s.flows[fi].handle])
		}
		rates = codec.Rates{Lane: s.lane}
	}
	body := codec.SessionBody(s.id, op, s.seq, &form.Hash, s.ids, form.Scenario.Assignment, rates, arrived)
	return &SessionResponse{Session: s.id, Body: body}, nil
}
