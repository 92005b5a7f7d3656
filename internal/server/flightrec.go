package server

import (
	"sync"
	"time"

	"closnet/internal/obs"
)

// flightRingSize bounds the flight recorder: the last flightRingSize
// requests are retained, older entries are overwritten in place. 256
// spans the longest burst a debugging session replays (the CI smoke,
// one benchmark run segment) while keeping the recorder's footprint
// fixed — with maxTraceSpans capping each entry's span list, the whole
// ring is bounded memory no matter how long the daemon runs.
const flightRingSize = 256

// flightSpares bounds how many span logs of overwritten entries wait
// for the next traces. A request takes one when it starts and returns
// one when it is recorded, so the list holds about as many logs as
// requests run at once; past this many, a log is left to the collector.
const flightSpares = 32

// flightEntry is one recorded request: identity, outcome, and the
// completed trace — everything GET /v1/debug/requests needs to explain
// "what just happened" without log archaeology.
type flightEntry struct {
	ID           string           `json:"id"`
	Time         time.Time        `json:"time"`
	Method       string           `json:"method"`
	Path         string           `json:"path"`
	Op           string           `json:"op"`
	Status       int              `json:"status"`
	Cache        string           `json:"cache,omitempty"`
	DurNs        int64            `json:"dur_ns"`
	Spans        []obs.SpanRecord `json:"spans,omitempty"`
	SpansDropped int              `json:"spans_dropped,omitempty"`

	// spans is the request's finished span log, owned by the ring slot;
	// entries copies it into Spans and SpansDropped.
	spans *obs.SpanLog
}

// flightRecorder is a fixed-size ring of the most recent requests.
// record is O(1); entries snapshots newest-first, the order a debugger
// reads. The ring owns its entries' span logs: when a slot is
// overwritten, its log goes to the spare list, and spanLog hands it to
// the next trace, so past the first lap a request allocates no span
// storage.
type flightRecorder struct {
	mu    sync.Mutex
	ring  [flightRingSize]flightEntry
	next  int // ring slot the next record lands in
	n     int // occupied slots, ≤ flightRingSize
	spare []*obs.SpanLog
}

func newFlightRecorder() *flightRecorder { return &flightRecorder{} }

// spanLog returns a spare span log for a new trace to reuse, or nil.
func (f *flightRecorder) spanLog() *obs.SpanLog {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.spare)
	if n == 0 {
		return nil
	}
	l := f.spare[n-1]
	f.spare[n-1] = nil
	f.spare = f.spare[:n-1]
	return l
}

// record stores e in the next slot; the span log of the entry it
// overwrites becomes spare.
func (f *flightRecorder) record(e flightEntry) {
	f.mu.Lock()
	f.recycleLocked(f.ring[f.next].spans)
	f.ring[f.next] = e
	f.next = (f.next + 1) % flightRingSize
	if f.n < flightRingSize {
		f.n++
	}
	f.mu.Unlock()
}

// recycle makes the span log of a request that is not recorded spare.
func (f *flightRecorder) recycle(l *obs.SpanLog) {
	f.mu.Lock()
	f.recycleLocked(l)
	f.mu.Unlock()
}

func (f *flightRecorder) recycleLocked(l *obs.SpanLog) {
	if l != nil && len(f.spare) < flightSpares {
		f.spare = append(f.spare, l)
	}
}

// entries returns the recorded requests, newest first. Their span lists
// are copies, so a slot overwritten later cannot change them.
func (f *flightRecorder) entries() []flightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]flightEntry, 0, f.n)
	for i := 1; i <= f.n; i++ {
		e := f.ring[(f.next-i+flightRingSize)%flightRingSize]
		e.Spans, e.SpansDropped, e.spans = e.spans.Records(), e.spans.Dropped(), nil
		out = append(out, e)
	}
	return out
}
