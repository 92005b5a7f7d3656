package server

import (
	"sync"

	"closnet/internal/obs"
)

// flightRingSize bounds the flight recorder: the last flightRingSize
// requests are retained, older entries are overwritten in place. 256
// spans the longest burst a debugging session replays (the CI smoke,
// one benchmark run segment) while keeping the recorder's footprint
// fixed — with maxTraceSpans capping each entry's span list, the whole
// ring is bounded memory no matter how long the daemon runs.
const flightRingSize = 256

// flightEntry is one recorded request: identity, outcome, and the
// completed trace — everything GET /v1/debug/requests needs to explain
// "what just happened" without log archaeology.
type flightEntry struct {
	ID           string           `json:"id"`
	Time         string           `json:"time"`
	Method       string           `json:"method"`
	Path         string           `json:"path"`
	Op           string           `json:"op"`
	Status       int              `json:"status"`
	Cache        string           `json:"cache,omitempty"`
	DurNs        int64            `json:"dur_ns"`
	Spans        []obs.SpanRecord `json:"spans,omitempty"`
	SpansDropped int              `json:"spans_dropped,omitempty"`
}

// flightRecorder is a fixed-size ring of the most recent requests.
// record is O(1) and never allocates past the first lap; entries
// snapshots newest-first, the order a debugger reads.
type flightRecorder struct {
	mu   sync.Mutex
	ring [flightRingSize]flightEntry
	next int // ring slot the next record lands in
	n    int // occupied slots, ≤ flightRingSize
}

func newFlightRecorder() *flightRecorder { return &flightRecorder{} }

func (f *flightRecorder) record(e flightEntry) {
	f.mu.Lock()
	f.ring[f.next] = e
	f.next = (f.next + 1) % flightRingSize
	if f.n < flightRingSize {
		f.n++
	}
	f.mu.Unlock()
}

// entries returns the recorded requests, newest first.
func (f *flightRecorder) entries() []flightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]flightEntry, 0, f.n)
	for i := 1; i <= f.n; i++ {
		out = append(out, f.ring[(f.next-i+flightRingSize)%flightRingSize])
	}
	return out
}
