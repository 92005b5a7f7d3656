package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunRootSpan: a CLI run's journal holds only spans; spans a tool
// opens under Run.Context join the run's trace, an operation with a
// context of its own roots a trace of its own, and the last line is
// the run's root span, named run, with the tool's name.
func TestRunRootSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	r, err := (&CLI{Trace: path}).Start("closlab", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sp := Start(r.Context(), "experiment")
	sp.Str("id", "T2").End()
	own, _ := r.Obs.StartSpan(context.Background(), "search.run")
	own.End()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name   string         `json:"name"`
		Parent int64          `json:"parent"`
		Span   int64          `json:"span"`
		Trace  string         `json:"trace"`
		Attrs  map[string]any `json:"attrs"`
	}
	var spans []span
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var l struct {
			Ev     string `json:"ev"`
			Fields span   `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if l.Ev != "span" {
			t.Errorf("journal line %s is not a span", sc.Bytes())
		}
		spans = append(spans, l.Fields)
	}
	if len(spans) != 3 {
		t.Fatalf("journal has %d lines, want 3:\n%s", len(spans), data)
	}
	exp, search, root := spans[0], spans[1], spans[2]
	if root.Name != "run" || root.Parent != 0 || root.Attrs["tool"] != "closlab" {
		t.Errorf("last line %+v, want the run root with tool closlab", root)
	}
	if exp.Name != "experiment" || exp.Trace != root.Trace || exp.Parent != root.Span {
		t.Errorf("experiment span %+v is not a child of the run root %+v", exp, root)
	}
	if search.Parent != 0 || search.Trace == root.Trace {
		t.Errorf("search span %+v did not root a trace of its own", search)
	}

	r, err = (&CLI{}).Start("closlab", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.Obs != nil || r.Context() != context.Background() {
		t.Error("a run without sinks carries an Obs bundle or a span context")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
