package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// varyingFields matches the journal fields whose values differ from run
// to run: the line time, the run and trace IDs, and the span times.
var varyingFields = regexp.MustCompile(`"(t_ns|start_ns|dur_ns)":[0-9]+|"(run|trace)":"[0-9a-f]{8}"`)

// maskJournal replaces the values of varyingFields with X.
func maskJournal(b []byte) string {
	return varyingFields.ReplaceAllStringFunc(string(b), func(m string) string {
		return m[:strings.IndexByte(m, ':')+1] + "X"
	})
}

// TestJournalSpanLines pins the wire format byte-for-byte, with the
// fields that vary between runs masked: each completed span is one line
// whose fields, and their attributes, have sorted keys and
// encoding/json's escaping; a root span has no parent field and a span
// without attributes no attrs field.
func TestJournalSpanLines(t *testing.T) {
	var buf bytes.Buffer
	o := &Obs{J: NewJournal(&buf)}
	root, ctx := o.StartSpan(context.Background(), "run")
	root.Str("tool", "x")
	leaf := Start(ctx, "verify.check")
	leaf.Str("name", "<b>").Bool("ok", true).Int("n", 3).End()
	bare := Start(ctx, "plain")
	bare.End()
	root.End()
	if err := o.J.Err(); err != nil {
		t.Fatal(err)
	}
	want := `{"t_ns":X,"run":X,"ev":"span","fields":{"attrs":{"n":3,"name":"\u003cb\u003e","ok":true},"dur_ns":X,"name":"verify.check","parent":1,"span":2,"start_ns":X,"trace":X}}
{"t_ns":X,"run":X,"ev":"span","fields":{"dur_ns":X,"name":"plain","parent":1,"span":3,"start_ns":X,"trace":X}}
{"t_ns":X,"run":X,"ev":"span","fields":{"attrs":{"tool":"x"},"dur_ns":X,"name":"run","span":1,"start_ns":X,"trace":X}}
`
	if got := maskJournal(buf.Bytes()); got != want {
		t.Errorf("journal bytes:\n got %s\nwant %s", got, want)
	}
}

// TestJournalDefaultRunID: every line carries the journal's run ID, 8
// random hex characters, and line times are monotone non-decreasing,
// across the journal's traces.
func TestJournalDefaultRunID(t *testing.T) {
	var buf bytes.Buffer
	o := &Obs{J: NewJournal(&buf)}
	for i := 0; i < 3; i++ {
		sp, _ := o.StartSpan(context.Background(), "a")
		sp.End()
	}
	var prev int64 = -1
	run := ""
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e struct {
			TNs int64  `json:"t_ns"`
			Run string `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if run == "" {
			run = e.Run
		}
		if len(e.Run) != 8 || e.Run != run {
			t.Errorf("line run ID %q, want the journal's 8 hex chars %q", e.Run, run)
		}
		if e.TNs < prev {
			t.Errorf("timestamps not monotone: %d after %d", e.TNs, prev)
		}
		prev = e.TNs
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestJournalStickyError: the first write failure is remembered, later
// spans are not written, and Err reports the original failure — so
// instrumented code never handles journal errors inline.
func TestJournalStickyError(t *testing.T) {
	o := &Obs{J: NewJournal(failWriter{})}
	sp, _ := o.StartSpan(context.Background(), "a")
	sp.End()
	err := o.J.Err()
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("Err() = %v, want disk full", err)
	}
	sp, _ = o.StartSpan(context.Background(), "b") // must not panic, must not clobber the error
	sp.End()
	if got := o.J.Err(); got != err {
		t.Errorf("sticky error changed: %v", got)
	}
}

// TestJournalNil: a nil journal reports no error, and a trace on it
// stores its spans without journaling them.
func TestJournalNil(t *testing.T) {
	var j *Journal
	if j.Err() != nil {
		t.Error("nil journal carries state")
	}
	tr := NewTrace(j, nil)
	sp, _ := tr.Start(context.Background(), "root")
	sp.End()
	if n := len(tr.Finish().Records()); n != 1 {
		t.Errorf("a trace on a nil journal stored %d spans, want 1", n)
	}
}

// syncBuffer makes bytes.Buffer safe for the raw concurrent writes of
// TestJournalConcurrent's verification pass.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestJournalConcurrent: spans ending on many goroutines, in one trace
// and in traces of their own, interleave as whole lines — every line
// parses as one JSON object and none is lost.
func TestJournalConcurrent(t *testing.T) {
	var buf syncBuffer
	o := &Obs{J: NewJournal(&buf)}
	root, ctx := o.StartSpan(context.Background(), "root")
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := Start(ctx, "tick")
				sp.Int("g", g).Int("i", i).End()
				own, _ := o.StartSpan(context.Background(), "own")
				own.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	if err := o.J.Err(); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf.buf)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("torn journal line: %q", sc.Text())
		}
		lines++
	}
	if want := 2*goroutines*perG + 1; lines != want {
		t.Errorf("journal has %d lines, want %d", lines, want)
	}
}

var _ io.Writer = (*syncBuffer)(nil)
