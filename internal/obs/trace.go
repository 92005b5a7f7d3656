package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// maxTraceSpans bounds how many completed spans one trace retains (and
// journals): a traced search request would otherwise emit a span per
// evaluated block. Past the cap, spans are counted as dropped instead
// of recorded, so a trace's memory and journal footprint is fixed.
const maxTraceSpans = 512

// Trace is the request-scoped tracing context: an 8-hex-char random ID
// (the X-Closnet-Request-Id of the serving layer) plus the bounded set
// of completed spans. Spans end concurrently — search workers each
// close their shard span — so completion is mutex-serialized; starting
// a span is lock-free. A nil *Trace is a no-op, the off state every
// instrumented path pays for with one nil check.
//
// When a Journal is attached, each completed span is also emitted as a
// "span" event, carrying the trace ID so journal consumers can stitch
// the request tree across the run's interleaved requests.
type Trace struct {
	id    string
	j     *Journal
	start time.Time

	nextID atomic.Int64

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
}

// SpanRecord is the completed, serializable form of one span. Times are
// nanoseconds since the trace started, so a request's records are
// self-consistent without a shared clock.
type SpanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"` // 0 = root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   F      `json:"attrs,omitempty"`
}

// NewTrace starts a trace with a fresh random ID. j may be nil: spans
// are then only retained in memory (for the flight recorder), not
// journaled.
func NewTrace(j *Journal) *Trace {
	return &Trace{id: newRunID(), j: j, start: time.Now()}
}

// ID returns the trace's 8-hex-char ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan opens a root-level span (no parent). Use Span.Child for
// nesting. Returns nil on a nil trace.
func (t *Trace) StartSpan(name string) *Span {
	return t.startSpan(name, 0)
}

func (t *Trace) startSpan(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Since(t.start).Nanoseconds(),
	}
}

// Spans returns a copy of the completed spans recorded so far.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped returns how many spans ended past the maxTraceSpans cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// finish records one completed span, or counts it as dropped past the
// cap; recorded spans are also journaled.
func (t *Trace) finish(rec SpanRecord) {
	t.mu.Lock()
	if len(t.spans) >= maxTraceSpans {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
	if t.j == nil {
		return
	}
	fields := F{
		"trace": t.id, "span": rec.ID, "name": rec.Name,
		"start_ns": rec.StartNs, "dur_ns": rec.DurNs,
	}
	if rec.Parent != 0 {
		fields["parent"] = rec.Parent
	}
	if rec.Attrs != nil {
		fields["attrs"] = rec.Attrs
	}
	t.j.Emit("span", fields)
}

// Span is one in-flight timed region of a trace. All methods are
// nil-safe, so code paths instrument unconditionally and a request
// without a trace costs one nil check per touch point, no allocations.
// A span is owned by one goroutine until End; children may end on other
// goroutines (the trace serializes completion).
type Span struct {
	tr     *Trace
	id     int64
	parent int64
	name   string
	start  int64
	attrs  F
}

// Child opens a sub-span. Returns nil on a nil receiver, so span trees
// degrade to no-ops wholesale when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(name, s.id)
}

// Attr attaches one key/value to the span (shown in the journal event
// and the flight-recorder summary). Returns s for chaining. A nil span
// is a no-op, but a dynamic v is boxed into an interface before Attr
// can return, so a call site on a per-request path checks for nil
// first.
func (s *Span) Attr(key string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = F{}
	}
	s.attrs[key] = v
	return s
}

// End completes the span, recording it on its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.finish(SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNs: s.start,
		DurNs:   time.Since(s.tr.start).Nanoseconds() - s.start,
		Attrs:   s.attrs,
	})
}

// spanCtxKey carries the current *Span through context.Context, from
// the server middleware down into engine, search and core code.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span. A nil
// span returns ctx unchanged (and unallocated).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the current span of ctx, or nil. Hot loops resolve
// it once and hold the (possibly nil) *Span.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a child of ctx's current span and returns it together
// with a context carrying it, the idiom for request-level call layers:
//
//	sp, ctx := obs.StartSpan(ctx, "engine.compute")
//	defer sp.End()
//
// Without a span in ctx it returns (nil, ctx) at zero cost beyond the
// context lookup.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	cur := SpanFrom(ctx)
	if cur == nil {
		return nil, ctx
	}
	child := cur.Child(name)
	return child, ContextWithSpan(ctx, child)
}
