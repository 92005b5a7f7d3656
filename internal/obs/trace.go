package obs

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxTraceSpans bounds how many completed spans one trace retains (and
// journals): a traced search request would otherwise emit a span per
// evaluated block. Past the cap, spans are counted as dropped instead
// of recorded, so a trace's memory and journal footprint is fixed.
const maxTraceSpans = 512

// spanAttrs is how many attributes a span holds inline; search.run, the
// busiest span, sets four. Further keys spill to a heap slice.
const spanAttrs = 4

// Trace is the request-scoped tracing context: an 8-hex-char random ID
// (the X-Closnet-Request-Id of the serving layer) plus the SpanLog its
// completed spans go into. Spans end concurrently — search workers each
// close their shard span — so completion is mutex-serialized; starting
// a span is lock-free. A context without a trace is the off state, which
// an instrumented path pays for with one context lookup.
//
// Tracing allocates per trace, not per span. A Span is a value on its
// caller's stack; only a span that parents others derives a context
// (StartSpan, one small allocation), and a leaf span (Start) derives
// none. End encodes the span into the trace's SpanLog, whose buffer the
// trace's owner takes with Finish and may hand to the next trace.
//
// When a Journal is attached, each completed span is also emitted as a
// "span" event, carrying the trace ID so journal consumers can stitch
// the request tree across the run's interleaved requests.
type Trace struct {
	id    string
	j     *Journal
	start time.Time

	nextID atomic.Int64

	mu       sync.Mutex
	log      SpanLog
	finished bool // Finish handed log on: later spans are only journaled
}

// SpanLog holds the completed spans of one trace, in completion order,
// and the count of spans dropped past maxTraceSpans. A trace appends to
// its log until Finish hands it on; from then on the log is the
// receiver's, to read and then to give to NewTrace, which reuses its
// buffer.
//
// The spans are encoded back to back in one byte buffer (appendSpan):
// the flight recorder keeps the logs of its last requests, and a
// record of a typical span takes about 40 bytes this way, against
// about 100 as a struct with its attributes.
type SpanLog struct {
	buf     []byte
	spans   int
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
	Attrs   Attrs  `json:"attrs,omitempty"`
}

// Attr is one span attribute: a key and a string, int or bool value,
// held as is, with no boxing.
type Attr struct {
	Key  string
	str  string
	num  int64
	kind attrKind
}

type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrBool
)

// Value returns the attribute's value as a string, an int or a bool.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return int(a.num)
	case attrBool:
		return a.num != 0
	}
	return a.str
}

// Attrs is a span's attribute set, one entry per key.
type Attrs []Attr

// MarshalJSON writes the set as one object with sorted keys: the bytes
// encoding/json writes for the same keys and values in an F.
func (as Attrs) MarshalJSON() ([]byte, error) {
	sorted := slices.Clone(as)
	slices.SortFunc(sorted, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	b := []byte{'{'}
	for i, a := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		k, err := json.Marshal(a.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(a.Value())
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// NewTrace starts a trace with a fresh random ID. j may be nil: spans
// are then only kept in memory (for the flight recorder), not
// journaled. reuse, if not nil, is a finished trace's SpanLog that no
// one reads any more; the new trace stores its spans in reuse's
// buffers.
func NewTrace(j *Journal, reuse *SpanLog) *Trace {
	t := &Trace{id: newRunID(), j: j, start: time.Now()}
	if reuse != nil {
		t.log.buf = reuse.buf[:0]
	}
	return t
}

// ID returns the trace's 8-hex-char ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens the trace's root span and returns it together with a
// context carrying it. A nil trace returns the zero Span and ctx.
func (t *Trace) Start(ctx context.Context, name string) (Span, context.Context) {
	if t == nil {
		return Span{}, ctx
	}
	sp := t.open(name, 0)
	return sp, &spanCtx{Context: ctx, tr: t, id: sp.id}
}

// Finish closes the trace and hands its SpanLog to the caller. A span
// that ends after Finish is journaled but not stored, so nothing writes
// into the log once it has been handed on. Returns nil on a nil trace.
func (t *Trace) Finish() *SpanLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.finished = true
	t.mu.Unlock()
	return &t.log
}

func (t *Trace) open(name string, parent int64) Span {
	return Span{
		tr:     t,
		id:     t.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Since(t.start).Nanoseconds(),
	}
}

// finish records the completed span s, or counts it as dropped past the
// cap; recorded spans, and spans that end after Finish, are also
// journaled.
func (t *Trace) finish(s *Span, durNs int64) {
	t.mu.Lock()
	if !t.finished {
		l := &t.log
		if l.spans >= maxTraceSpans {
			l.dropped++
			t.mu.Unlock()
			return
		}
		l.buf = appendSpan(l.buf, s, durNs)
		l.spans++
	}
	t.mu.Unlock()
	if t.j == nil {
		return
	}
	fields := F{
		"trace": t.id, "span": s.id, "name": s.name,
		"start_ns": s.start, "dur_ns": durNs,
	}
	if s.parent != 0 {
		fields["parent"] = s.parent
	}
	if n := s.n + len(s.more); n > 0 {
		fields["attrs"] = append(append(make(Attrs, 0, n), s.attrs[:s.n]...), s.more...)
	}
	t.j.Emit("span", fields)
}

// appendSpan encodes the span s, ended after durNs, onto buf: its ID,
// parent, name, start, duration and attribute count, then each
// attribute's kind, key and value. Ints are varints and strings are
// length-prefixed. buf grows by a quarter when it must, not by doubling:
// a log's buffer passes from trace to trace and a finished log is kept
// as it is, so its spare capacity is held for as long as the log is.
func appendSpan(buf []byte, s *Span, durNs int64) []byte {
	size := 6*binary.MaxVarintLen64 + len(s.name) + attrsSize(s.attrs[:s.n]) + attrsSize(s.more)
	if len(buf)+size > cap(buf) {
		buf = append(make([]byte, 0, max(len(buf)+size, cap(buf)+cap(buf)/4+512)), buf...)
	}
	buf = binary.AppendUvarint(buf, uint64(s.id))
	buf = binary.AppendUvarint(buf, uint64(s.parent))
	buf = appendString(buf, s.name)
	buf = binary.AppendVarint(buf, s.start)
	buf = binary.AppendVarint(buf, durNs)
	buf = binary.AppendUvarint(buf, uint64(s.n+len(s.more)))
	buf = appendAttrs(buf, s.attrs[:s.n])
	return appendAttrs(buf, s.more)
}

// attrsSize bounds the bytes appendAttrs writes for as.
func attrsSize(as []Attr) int {
	n := 0
	for _, a := range as {
		n += 1 + 2*binary.MaxVarintLen64 + len(a.Key) + len(a.str)
	}
	return n
}

func appendAttrs(buf []byte, as []Attr) []byte {
	for _, a := range as {
		buf = appendString(append(buf, byte(a.kind)), a.Key)
		if a.kind == attrStr {
			buf = appendString(buf, a.str)
		} else {
			buf = binary.AppendVarint(buf, a.num)
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Records decodes the log's spans, in completion order (nil on a nil or
// empty log).
func (l *SpanLog) Records() []SpanRecord {
	if l == nil || l.spans == 0 {
		return nil
	}
	out := make([]SpanRecord, l.spans)
	d := spanDecoder{l.buf}
	for i := range out {
		r := &out[i]
		r.ID, r.Parent = int64(d.uvarint()), int64(d.uvarint())
		r.Name = d.string()
		r.StartNs, r.DurNs = d.varint(), d.varint()
		if n := d.uvarint(); n > 0 {
			r.Attrs = make(Attrs, n)
			for j := range r.Attrs {
				a := &r.Attrs[j]
				a.kind = attrKind(d.buf[0])
				d.buf = d.buf[1:]
				a.Key = d.string()
				if a.kind == attrStr {
					a.str = d.string()
				} else {
					a.num = d.varint()
				}
			}
		}
	}
	return out
}

// spanDecoder reads what appendSpan wrote.
type spanDecoder struct{ buf []byte }

func (d *spanDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	d.buf = d.buf[n:]
	return v
}

func (d *spanDecoder) varint() int64 {
	v, n := binary.Varint(d.buf)
	d.buf = d.buf[n:]
	return v
}

func (d *spanDecoder) string() string {
	n := d.uvarint()
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Dropped returns how many spans ended past the maxTraceSpans cap.
func (l *SpanLog) Dropped() int {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Span is one in-flight timed region of a trace. It is a value, meant to
// live on its caller's stack; End records it. The zero Span, which Start
// returns for a context without a trace, is the off state: every method
// is then a no-op that allocates nothing. A span is owned by one
// goroutine until End; spans of one trace may end on different
// goroutines (the trace serializes completion).
type Span struct {
	tr     *Trace
	id     int64
	parent int64
	name   string
	start  int64
	n      int // attrs in use
	attrs  [spanAttrs]Attr
	more   []Attr // attributes past spanAttrs
}

// Str sets the string attribute key (a later set of key replaces it).
// Returns s for chaining.
func (s *Span) Str(key, v string) *Span { return s.set(Attr{Key: key, str: v, kind: attrStr}) }

// Int sets the int attribute key. Returns s for chaining.
func (s *Span) Int(key string, v int) *Span {
	return s.set(Attr{Key: key, num: int64(v), kind: attrInt})
}

// Bool sets the bool attribute key. Returns s for chaining.
func (s *Span) Bool(key string, v bool) *Span {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.num = 1
	}
	return s.set(a)
}

func (s *Span) set(a Attr) *Span {
	if s.tr == nil {
		return s
	}
	for i := range s.attrs[:s.n] {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			return s
		}
	}
	for i := range s.more {
		if s.more[i].Key == a.Key {
			s.more[i] = a
			return s
		}
	}
	if s.n < spanAttrs {
		s.attrs[s.n] = a
		s.n++
	} else {
		s.more = append(s.more, a)
	}
	return s
}

// End completes the span, recording it on its trace.
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.finish(s, time.Since(s.tr.start).Nanoseconds()-s.start)
}

// spanCtx is the context a parent span derives: it carries what a child
// needs of its parent, the trace and the parent's span ID.
type spanCtx struct {
	context.Context
	tr *Trace
	id int64
}

type spanCtxKey struct{}

func (c *spanCtx) Value(key any) any {
	if key == (spanCtxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// parentOf returns the innermost parent span ctx carries, or nil.
func parentOf(ctx context.Context) *spanCtx {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(spanCtxKey{}).(*spanCtx)
	return c
}

// Start opens a leaf span, a child of ctx's span that parents no span
// itself, and derives no context for it:
//
//	sp := obs.Start(ctx, "server.decode")
//	scen, err := codec.Decode(body)
//	sp.Bool("ok", err == nil).End()
//
// Without a span in ctx it returns the zero Span, at the cost of the
// context lookup.
func Start(ctx context.Context, name string) Span {
	c := parentOf(ctx)
	if c == nil {
		return Span{}
	}
	return c.tr.open(name, c.id)
}

// StartSpan opens a child of ctx's span and returns it together with a
// context carrying it, the idiom for a call layer whose callees open
// spans of their own:
//
//	sp, ctx := obs.StartSpan(ctx, "engine.compute")
//	defer sp.End()
//
// Without a span in ctx it returns the zero Span and ctx unchanged.
func StartSpan(ctx context.Context, name string) (Span, context.Context) {
	c := parentOf(ctx)
	if c == nil {
		return Span{}, ctx
	}
	sp := c.tr.open(name, c.id)
	return sp, &spanCtx{Context: ctx, tr: c.tr, id: sp.id}
}
