package obs

import (
	"context"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestTraceSpanTree: spans nest by parent ID, carry attrs, and are
// journaled as "span" lines tagged with the trace ID.
func TestTraceSpanTree(t *testing.T) {
	var sb strings.Builder
	o := &Obs{J: NewJournal(&sb)}
	tr := NewTrace(o.J, nil)
	if len(tr.ID()) != 8 {
		t.Fatalf("trace ID %q, want 8 hex chars", tr.ID())
	}

	root, ctx := tr.Start(context.Background(), "server.request")
	child, cctx := o.StartSpan(ctx, "engine.compute")
	child.Str("op", "evaluate")
	grand := Start(cctx, "core.block_fill")
	grand.End()
	child.End()
	root.End()

	spans := tr.Finish().Records()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: leaf first.
	if spans[0].Name != "core.block_fill" || spans[1].Name != "engine.compute" || spans[2].Name != "server.request" {
		t.Fatalf("span order %v", spans)
	}
	if spans[2].Parent != 0 || spans[1].Parent != spans[2].ID || spans[0].Parent != spans[1].ID {
		t.Fatalf("span parents broken: %+v", spans)
	}
	if a := spans[1].Attrs; len(a) != 1 || a[0].Key != "op" || a[0].Value() != "evaluate" {
		t.Fatalf("attrs %v", a)
	}

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal carries %d lines, want 3", len(lines))
	}
	var ev struct {
		Ev     string `json:"ev"`
		Fields struct {
			Trace  string `json:"trace"`
			Name   string `json:"name"`
			Parent int64  `json:"parent"`
		} `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ev != "span" || ev.Fields.Trace != tr.ID() || ev.Fields.Name != "core.block_fill" || ev.Fields.Parent == 0 {
		t.Fatalf("journaled span event %+v", ev)
	}
}

// TestTraceSpanCap: past maxTraceSpans, leaf spans are dropped and
// counted instead of stored, so a traced search request has a fixed
// footprint; the root, which ends after them, is still stored, and
// every span is still journaled.
func TestTraceSpanCap(t *testing.T) {
	var sb strings.Builder
	tr := NewTrace(NewJournal(&sb), nil)
	root, ctx := tr.Start(context.Background(), "root")
	for i := 0; i < maxTraceSpans+50; i++ {
		sp := Start(ctx, "block")
		sp.End()
	}
	root.End()
	log := tr.Finish()
	recs := log.Records()
	if got := len(recs); got != maxTraceSpans+1 {
		t.Errorf("stored %d spans, want %d: the cap's leaves and the root", got, maxTraceSpans+1)
	}
	if last := recs[len(recs)-1]; last.Name != "root" || last.Parent != 0 {
		t.Errorf("the log ends with %+v, want the root", last)
	}
	if got := log.Dropped(); got != 50 {
		t.Errorf("dropped %d spans, want the 50 leaves past the cap", got)
	}
	if got := strings.Count(sb.String(), "\n"); got != maxTraceSpans+51 {
		t.Errorf("journaled %d spans, want all %d", got, maxTraceSpans+51)
	}
}

// TestTraceConcurrentSpans: spans ending from many goroutines (the
// search-worker shape) race-cleanly serialize into the trace.
func TestTraceConcurrentSpans(t *testing.T) {
	var o *Obs
	tr := NewTrace(nil, nil)
	root, ctx := tr.Start(context.Background(), "search.run")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp, sctx := o.StartSpan(ctx, "search.shard")
			sp.Int("shard", w)
			for i := 0; i < 32; i++ {
				b := Start(sctx, "core.block_fill")
				b.Int("block", i).End()
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()
	spans := tr.Finish().Records()
	if got := len(spans); got != 8*33+1 {
		t.Fatalf("got %d spans, want %d", got, 8*33+1)
	}
	names := map[int64]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	for _, s := range spans {
		if want := map[string]string{"search.run": "", "search.shard": "search.run", "core.block_fill": "search.shard"}[s.Name]; names[s.Parent] != want {
			t.Fatalf("%s span under %q, want %q", s.Name, names[s.Parent], want)
		}
	}
}

// TestSpanContext: propagation through context.Context — only StartSpan
// derives a context, so a leaf's children hang from the leaf's parent —
// and the off state: no span in ctx and no journal means zero Spans all
// the way down.
func TestSpanContext(t *testing.T) {
	var o *Obs
	ctx := context.Background()
	if parentOf(ctx) != nil {
		t.Fatal("empty context carries a span")
	}
	sp, ctx2 := o.StartSpan(ctx, "x")
	if sp.tr != nil || ctx2 != ctx {
		t.Fatal("StartSpan without a trace or a journal must be a no-op returning ctx unchanged")
	}

	tr := NewTrace(nil, nil)
	root, ctx := tr.Start(ctx, "root")
	child, cctx := o.StartSpan(ctx, "child")
	if c := parentOf(cctx); c == nil || c.id != child.id {
		t.Fatal("StartSpan did not thread the child span")
	}
	leaf := Start(cctx, "leaf")
	sibling := Start(cctx, "sibling")
	sibling.End()
	leaf.End()
	child.End()
	root.End()
	spans := tr.Finish().Records()
	if len(spans) != 4 || spans[0].Parent != child.id || spans[1].Parent != child.id || spans[2].Parent != root.id || spans[3].Parent != 0 {
		t.Fatalf("spans %+v", spans)
	}
}

// TestSpanAfterFinish: a span that ends after its trace was finished is
// journaled but not stored, so it cannot write into a log that a later
// trace reuses.
func TestSpanAfterFinish(t *testing.T) {
	var sb strings.Builder
	tr := NewTrace(NewJournal(&sb), nil)
	root, ctx := tr.Start(context.Background(), "root")
	late := Start(ctx, "late")
	late.Str("k", "v")
	root.End()
	log := tr.Finish()

	// By the time the late span ends, the trace that reuses the log has
	// written past the finished trace's one record.
	next := NewTrace(nil, log)
	nroot, nctx := next.Start(context.Background(), "next")
	for i := 0; i < 3; i++ {
		sp := Start(nctx, "child")
		sp.Int("i", i).End()
	}
	late.End()
	nroot.End()
	got, err := json.Marshal(next.Finish().Records())
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"id":2,"parent":1,"name":"child","start_ns":S,"dur_ns":D,"attrs":{"i":0}},` +
		`{"id":3,"parent":1,"name":"child","start_ns":S,"dur_ns":D,"attrs":{"i":1}},` +
		`{"id":4,"parent":1,"name":"child","start_ns":S,"dur_ns":D,"attrs":{"i":2}},` +
		`{"id":1,"name":"next","start_ns":S,"dur_ns":D}]`
	norm := regexp.MustCompile(`"start_ns":[0-9]+`).ReplaceAllString(string(got), `"start_ns":S`)
	if norm = regexp.MustCompile(`"dur_ns":[0-9]+`).ReplaceAllString(norm, `"dur_ns":D`); norm != want {
		t.Fatalf("reused log holds\n%s\nwant\n%s", norm, want)
	}
	if lines := strings.Split(strings.TrimSpace(sb.String()), "\n"); len(lines) != 2 || !strings.Contains(lines[1], `"name":"late"`) {
		t.Fatalf("journal %q, want the root and then the late span", sb.String())
	}
}

// batchTrace opens and ends, on tr, the spans of one /v1/batch request
// of items items: the root, the envelope's decode and prepare, and per
// item a cache lookup, an admission, and a compute that parents fills
// block fills. With 32 items and one fill each, as batch-sweep sends,
// that is 131 spans, 33 of them parents, with 164 attributes.
func batchTrace(tr *Trace, items, fills int) {
	var o *Obs
	root, ctx := tr.Start(context.Background(), "server.request")
	root.Str("method", "POST").Str("path", "/v1/batch")
	dsp := Start(ctx, "server.decode")
	dsp.Bool("ok", true).End()
	psp := Start(ctx, "engine.prepare")
	psp.End()
	for i := 0; i < items; i++ {
		csp := Start(ctx, "server.cache")
		csp.Str("state", "miss").End()
		asp := Start(ctx, "server.admit")
		asp.Bool("ok", true).End()
		sp, cctx := o.StartSpan(ctx, "engine.compute")
		sp.Str("op", "evaluate")
		for f := 0; f < fills; f++ {
			bsp := Start(cctx, "core.block_fill")
			bsp.Int("block", 1).End()
		}
		sp.Bool("ok", true).End()
	}
	root.Int("status", 200).End()
}

// TestWarmTraceAllocs: once a trace's log is warm, a trace allocates
// the same objects however many leaf spans and attributes it records —
// the trace and its ID, its root's context, and one context per parent
// span; leaf spans, attributes and span storage allocate nothing.
func TestWarmTraceAllocs(t *testing.T) {
	var log *SpanLog
	traceAllocs := func(items, fills, spans int) float64 {
		run := func() {
			tr := NewTrace(nil, log)
			batchTrace(tr, items, fills)
			log = tr.Finish()
		}
		run()
		allocs := testing.AllocsPerRun(100, run)
		if n := len(log.Records()); n != spans {
			t.Fatalf("trace of %d items with %d fills each recorded %d spans, want %d", items, fills, n, spans)
		}
		return allocs
	}
	rootOnly := traceAllocs(0, 0, 3)
	batch := traceAllocs(32, 1, 131)
	if batch != rootOnly+32 {
		t.Errorf("a warm 131-span trace allocates %.0f objects, want %.0f: the %.0f of a root-only trace plus one context per engine.compute", batch, rootOnly+32, rootOnly)
	}
	if wide := traceAllocs(32, 4, 227); wide != batch {
		t.Errorf("a warm 227-span trace allocates %.0f objects, want the 131-span trace's %.0f: its extra spans are leaves", wide, batch)
	}
}

// TestNilTraceDisabled: every operation on nil traces and zero spans is
// a no-op — the zero-overhead off state of request tracing.
func TestNilTraceDisabled(t *testing.T) {
	var (
		tr *Trace
		o  *Obs
	)
	ctx := context.Background()
	if sp, c := tr.Start(ctx, "x"); tr.ID() != "" || sp.tr != nil || c != ctx || tr.Finish() != nil {
		t.Error("nil trace carries state")
	}
	var log *SpanLog
	if log.Records() != nil || log.Dropped() != 0 {
		t.Error("nil span log carries state")
	}
	var s Span
	s.Str("k", "v").Int("n", 1).Bool("b", true).End()
	if s.n != 0 {
		t.Error("zero span kept an attribute")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp, cctx := o.StartSpan(ctx, "p")
		leaf := Start(cctx, "c")
		leaf.Int("k", 2).End()
		sp.Str("op", "x").End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per run, want 0", allocs)
	}
}

// mapRecord is a SpanRecord with its attributes in a map, the form
// records took before attributes were typed.
type mapRecord struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// mapLine is a journal line with its span's fields in a map, the form
// lines took before the journal wrote only spans.
type mapLine struct {
	TNs    int64          `json:"t_ns"`
	Run    string         `json:"run"`
	Ev     string         `json:"ev"`
	Fields map[string]any `json:"fields,omitempty"`
}

// FuzzSpanAttrsMatchMap: a span's typed attributes serialize, in its
// record and in its journal line, to exactly what encoding/json writes
// for the same fields with the attributes in a map — sorted keys, the
// last write of a key winning, encoding/json's escaping of HTML-special,
// non-ASCII and invalid UTF-8 strings, extreme ints — including spans
// with no attributes and spans with more keys than a span holds inline.
// prog is read three bytes per set: kind, key, value.
func FuzzSpanAttrsMatchMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 3, 2, 2, 1}, "<&>", "é")
	f.Add([]byte{}, "", "")
	f.Add([]byte{0, 3, 2, 0, 3, 4, 1, 3, 0, 2, 3, 1}, "\xff\xfe", "\u2028")
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 6, 6, 0, 7, 7, 1, 0, 5}, "k", "v")
	keys := []string{"ok", "op", "state", "<b>&", "ключ", "\xc3\x28"}
	vals := []string{"", "hit", "a\"b\\c\n\t", "<script>&amp;", "日本語", "\xed\xa0\x80", "\u2028\u2029", "\x00\x1f"}
	ints := []int{0, 1, -1, 200, math.MaxInt64, math.MinInt64, math.MaxInt32 + 1, -512}
	f.Fuzz(func(t *testing.T, prog []byte, s1, s2 string) {
		keys := append(keys[:len(keys):len(keys)], s1, s2)
		vals := append(vals[:len(vals):len(vals)], s1, s2)
		var sb strings.Builder
		tr := NewTrace(NewJournal(&sb), nil)
		root, ctx := tr.Start(context.Background(), "root")
		leaf := Start(ctx, s1)
		want := map[string]any{}
		for i := 0; i+2 < len(prog); i += 3 {
			key, b := keys[int(prog[i+1])%len(keys)], prog[i+2]
			switch prog[i] % 3 {
			case 0:
				leaf.Str(key, vals[int(b)%len(vals)])
				want[key] = vals[int(b)%len(vals)]
			case 1:
				v := int(int8(b))
				if b >= 0xf8 {
					v = ints[b-0xf8]
				}
				leaf.Int(key, v)
				want[key] = v
			default:
				leaf.Bool(key, b&1 == 1)
				want[key] = b&1 == 1
			}
		}
		leaf.End()
		root.End()
		if len(want) == 0 {
			want = nil
		}

		recs := tr.Finish().Records()
		lines := strings.SplitAfter(sb.String(), "\n")
		if len(recs) != 2 || len(lines) != 3 || lines[2] != "" {
			t.Fatalf("%d records, journal %q", len(recs), sb.String())
		}
		for i, r := range recs {
			attrs := want
			if r.Parent == 0 {
				attrs = nil
			}
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			exp, err := json.Marshal(mapRecord{r.ID, r.Parent, r.Name, r.StartNs, r.DurNs, attrs})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(exp) {
				t.Fatalf("record\n got %s\nwant %s", got, exp)
			}

			// The line's time and run ID are the journal's own.
			var line mapLine
			if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
				t.Fatal(err)
			}
			fields := map[string]any{"trace": tr.ID(), "span": r.ID, "name": r.Name, "start_ns": r.StartNs, "dur_ns": r.DurNs}
			if r.Parent != 0 {
				fields["parent"] = r.Parent
			}
			if attrs != nil {
				fields["attrs"] = attrs
			}
			exp, err = json.Marshal(mapLine{TNs: line.TNs, Run: line.Run, Ev: "span", Fields: fields})
			if err != nil {
				t.Fatal(err)
			}
			if lines[i] != string(exp)+"\n" {
				t.Fatalf("journal line\n got %s want %s", lines[i], exp)
			}
		}
	})
}

// TestStartSpanRooting: the three branches of Obs.StartSpan. With a
// span in ctx it opens a child in that span's trace, journal or not.
// With none it roots a new trace on the bundle's journal, which
// journals its spans and stores none. With neither it returns the zero
// Span and ctx unchanged.
func TestStartSpanRooting(t *testing.T) {
	var sb strings.Builder
	o := &Obs{J: NewJournal(&sb)}
	ctx := context.Background()

	tr := NewTrace(nil, nil)
	root, rctx := tr.Start(ctx, "server.request")
	child, cctx := o.StartSpan(rctx, "engine.compute")
	if child.tr != tr || child.parent != root.id || parentOf(cctx).id != child.id {
		t.Fatal("StartSpan under a span did not open a child in its trace")
	}
	child.End()
	root.End()
	if n := len(tr.Finish().Records()); n != 2 || sb.Len() != 0 {
		t.Fatalf("the request trace stored %d spans and journaled %q, want 2 and nothing", n, sb.String())
	}

	run, runCtx := o.StartSpan(ctx, "run")
	if run.tr == nil || run.parent != 0 || parentOf(runCtx).id != run.id {
		t.Fatal("StartSpan without a span did not root a trace on the journal")
	}
	leaf := Start(runCtx, "experiment")
	leaf.End()
	other, _ := o.StartSpan(ctx, "search.run")
	if other.tr == run.tr {
		t.Fatal("two roots share a trace")
	}
	other.End()
	run.End()
	if l := run.tr.log; l.spans != 0 || len(l.buf) != 0 {
		t.Errorf("a journal-rooted trace stored %d spans", l.spans)
	}
	type line struct {
		Fields struct {
			Name   string `json:"name"`
			Parent int64  `json:"parent"`
			Span   int64  `json:"span"`
			Trace  string `json:"trace"`
		} `json:"fields"`
	}
	var got []line
	for _, s := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(s), &l); err != nil {
			t.Fatal(err)
		}
		got = append(got, l)
	}
	if len(got) != 3 {
		t.Fatalf("journaled %d spans, want 3", len(got))
	}
	exp, srch, rn := got[0].Fields, got[1].Fields, got[2].Fields
	if exp.Name != "experiment" || exp.Trace != run.tr.ID() || exp.Parent != rn.Span || rn.Name != "run" || rn.Parent != 0 {
		t.Errorf("the run's trace journaled %+v and %+v", exp, rn)
	}
	if srch.Name != "search.run" || srch.Parent != 0 || srch.Trace == rn.Trace {
		t.Errorf("the second root journaled %+v", srch)
	}

	for _, o := range []*Obs{nil, {Reg: NewRegistry()}} {
		if sp, c := o.StartSpan(ctx, "x"); sp.tr != nil || c != ctx {
			t.Error("StartSpan without a span or a journal must return the zero Span and ctx")
		}
	}
}
