package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// F is the free-form field set of one journal event. encoding/json
// serializes map keys in sorted order, so event lines are byte-stable
// for a given field set — a property the golden-file tests rely on.
type F map[string]any

// event is the wire form of one journal line.
type event struct {
	TNs    int64  `json:"t_ns"`
	Run    string `json:"run"`
	Ev     string `json:"ev"`
	Fields F      `json:"fields,omitempty"`
}

// Journal writes structured events as JSON Lines: one JSON object per
// line, each carrying a monotonic timestamp (nanoseconds since the
// journal was opened), the run ID, the event name, and free-form
// fields. Writes are serialized by a mutex, so a Journal is safe for
// concurrent use by search workers. A nil *Journal is a no-op, but an
// F and its boxed values are allocated before Emit can return, so a
// call site on a per-request path checks for nil first.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	runID string
	clock func() int64
	err   error // first write/encode error, sticky
}

// JournalOption customizes a Journal at construction.
type JournalOption func(*Journal)

// WithRunID pins the journal's run ID (the default is a random hex
// string). Tests inject a stable ID here.
func WithRunID(id string) JournalOption {
	return func(j *Journal) { j.runID = id }
}

// WithClock replaces the monotonic timestamp source (nanoseconds).
// Tests inject a deterministic clock here.
func WithClock(fn func() int64) JournalOption {
	return func(j *Journal) { j.clock = fn }
}

// NewJournal opens a journal over w. The default clock is monotonic
// time since this call; the default run ID is 8 random hex bytes.
func NewJournal(w io.Writer, opts ...JournalOption) *Journal {
	j := &Journal{w: w}
	for _, opt := range opts {
		opt(j)
	}
	if j.runID == "" {
		j.runID = newRunID()
	}
	if j.clock == nil {
		start := time.Now()
		j.clock = func() int64 { return time.Since(start).Nanoseconds() }
	}
	return j
}

// newRunID returns 8 random hex bytes (crypto/rand never fails on the
// supported platforms; on the impossible error path the ID degrades to
// a constant, which only affects log labeling).
func newRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// RunID returns the journal's run ID ("" on a nil journal).
func (j *Journal) RunID() string {
	if j == nil {
		return ""
	}
	return j.runID
}

// Emit appends one event. Errors are sticky and reported by Err rather
// than per call, so instrumented code paths never handle them inline.
func (j *Journal) Emit(ev string, fields F) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	line, err := json.Marshal(event{TNs: j.clock(), Run: j.runID, Ev: ev, Fields: fields})
	if err != nil {
		j.err = err
		return
	}
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
		j.err = err
	}
}

// Err returns the first write or encode error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
