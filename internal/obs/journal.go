package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// spanLine is the wire form of one journal line. Its fields, and those
// of spanFields, are in key order: a line has the bytes encoding/json
// writes for the same fields in a map, without building the map.
type spanLine struct {
	TNs    int64      `json:"t_ns"`
	Run    string     `json:"run"`
	Ev     string     `json:"ev"`
	Fields spanFields `json:"fields"`
}

// spanFields are a span's journal fields; its times are relative to its
// trace's start.
type spanFields struct {
	Attrs   Attrs  `json:"attrs,omitempty"`
	DurNs   int64  `json:"dur_ns"`
	Name    string `json:"name"`
	Parent  int64  `json:"parent,omitempty"` // 0 = root span
	Span    int64  `json:"span"`
	StartNs int64  `json:"start_ns"`
	Trace   string `json:"trace"`
}

// Journal writes completed spans as JSON Lines, one
// `{"t_ns":…,"run":…,"ev":"span","fields":{…}}` object per span: the
// time it was written (nanoseconds since the journal was opened), the
// run ID and the span's fields. Spans reach it through the traces
// rooted on it (NewTrace, Obs.StartSpan). Writes are serialized by a
// mutex, so search workers may end spans concurrently. A nil *Journal
// is a no-op.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	runID string
	start time.Time
	err   error // first write/encode error, sticky
}

// NewJournal opens a journal over w, with a run ID of 8 random hex
// characters.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, runID: newRunID(), start: time.Now()}
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

// write appends the line of one completed span. Errors are sticky and
// reported by Err rather than per call, so instrumented code paths
// never handle them inline.
func (j *Journal) write(f *spanFields) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	line, err := json.Marshal(spanLine{TNs: time.Since(j.start).Nanoseconds(), Run: j.runID, Ev: "span", Fields: *f})
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
