package search

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"closnet/internal/core"
	"closnet/internal/obs"
	"closnet/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the journal golden files")

// journalInstance is the small deterministic C_3 collection the journal
// tests search: four flows on distinct servers whose ToR pairs contend
// pairwise at the fabric, so the all-ones start allocates 1/2 per flow
// and only middle spreading reaches the all-ones optimum — the search
// improves its incumbent several times along the way.
func journalInstance() (*topology.Clos, core.Collection) {
	c := topology.MustClos(3)
	fs := core.Collection{}.
		Add(c.Source(1, 1), c.Dest(1, 1), 1).
		Add(c.Source(1, 2), c.Dest(2, 1), 1).
		Add(c.Source(2, 1), c.Dest(1, 2), 1).
		Add(c.Source(2, 2), c.Dest(2, 2), 1)
	return c, fs
}

// searchJournal runs a LexMaxMin search over the journal instance,
// returning the journal bytes and the search result.
func searchJournal(t *testing.T, workers int) ([]byte, *Result) {
	t.Helper()
	c, fs := journalInstance()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	res, err := LexMaxMin(c, fs, Options{Workers: workers, Obs: &obs.Obs{J: j}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// varyingFields matches the journal fields whose values differ from run
// to run: the line time, the run and trace IDs, and the span times.
var varyingFields = regexp.MustCompile(`"(t_ns|start_ns|dur_ns)":[0-9]+|"(run|trace)":"[0-9a-f]{8}"`)

// TestJournalGoldenC3 pins the complete JSONL journal of a serial
// (Workers=1) canonical C_3 search byte-for-byte, with varyingFields
// masked: the search is one trace rooted on the journal, its spans end
// in the deterministic enumeration order of the engine, and every field
// set serializes with sorted keys. Regenerate with
//
//	go test ./internal/search -run TestJournalGoldenC3 -update-golden
func TestJournalGoldenC3(t *testing.T) {
	data, res := searchJournal(t, 1)
	got := varyingFields.ReplaceAllStringFunc(string(data), func(m string) string {
		return m[:strings.IndexByte(m, ':')+1] + "X"
	})

	golden := filepath.Join("testdata", "journal_c3.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got != string(want) {
		t.Errorf("journal differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	// The last line, the search.run root, must report the state count
	// the search returned.
	spans := parseJournal(t, data)
	last := spans[len(spans)-1]
	if last.Name != "search.run" || last.Parent != 0 {
		t.Fatalf("last span = %s with parent %d, want the search.run root", last.Name, last.Parent)
	}
	if states := int(last.Attrs["states"].(float64)); states != res.States {
		t.Errorf("search.run states = %d, Result.States = %d", states, res.States)
	}
}

// journalSpan is the fields of one journal line.
type journalSpan struct {
	Name   string         `json:"name"`
	Parent int64          `json:"parent"`
	Span   int64          `json:"span"`
	Trace  string         `json:"trace"`
	Attrs  map[string]any `json:"attrs"`
}

func parseJournal(t *testing.T, data []byte) []journalSpan {
	t.Helper()
	var spans []journalSpan
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var e struct {
			Ev     string      `json:"ev"`
			Fields journalSpan `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if e.Ev != "span" {
			t.Fatalf("journal line %q is not a span", sc.Text())
		}
		spans = append(spans, e.Fields)
	}
	return spans
}

// TestStopRankGaugeUniform pins the search.stop_rank gauge across every
// schedule on an instance whose throughput optimum is first attained at
// the LAST canonical rank: two flows between the same ToR pair of C_2
// collide on middle 1 (throughput 1) and reach the matching bound 2
// only once spread (canonical rank 1 of 2). The early exit then
// publishes stop rank == space total, the case the sharded path's old
// `stop < total` comparison dropped — identical runs journaled a zero
// gauge under some worker counts and the true rank under others. Every
// schedule must now report the same gauge, equal to the lowest
// stop_rank a search.shard span journaled and to Result.States.
func TestStopRankGaugeUniform(t *testing.T) {
	c := topology.MustClos(2)
	fs := core.Collection{}.
		Add(c.Source(1, 1), c.Dest(1, 1), 1).
		Add(c.Source(1, 2), c.Dest(1, 2), 1)

	type schedule struct {
		full    bool
		workers int
	}
	schedules := []schedule{{true, 1}, {true, 2}, {false, 1}, {false, 2}}
	for _, sc := range schedules {
		reg := obs.NewRegistry()
		var buf bytes.Buffer
		res, err := ThroughputMaxMin(c, fs, Options{
			FullSpace: sc.full, Workers: sc.workers, Obs: &obs.Obs{Reg: reg, J: obs.NewJournal(&buf)},
		})
		if err != nil {
			t.Fatalf("full=%v workers=%d: %v", sc.full, sc.workers, err)
		}
		// The optimum sits at rank 1 in both spaces, so every schedule
		// stops after exactly 2 states.
		if res.States != 2 {
			t.Errorf("full=%v workers=%d: states = %d, want 2", sc.full, sc.workers, res.States)
		}
		if got := reg.Gauge("search.stop_rank").Value(); got != 2 {
			t.Errorf("full=%v workers=%d: stop_rank gauge = %d, want 2", sc.full, sc.workers, got)
		}
		// A later shard may find an optimum, and publish its stop rank,
		// before an earlier shard lowers the stop: the search stops at the
		// lowest rank published, in whatever order the shards ended.
		var spanRank int64 = -1
		for _, sp := range parseJournal(t, buf.Bytes()) {
			r, ok := sp.Attrs["stop_rank"].(float64)
			if sp.Name != "search.shard" || !ok {
				continue
			}
			if spanRank < 0 || int64(r) < spanRank {
				spanRank = int64(r)
			}
		}
		if spanRank != 2 {
			t.Errorf("full=%v workers=%d: search.shard stop_rank = %d, want 2", sc.full, sc.workers, spanRank)
		}
	}
}

// TestJournalShardedOrdering: with several workers the shards' spans
// end in a nondeterministic order, but the tree is fixed — one trace
// whose search.run root ends last, with one search.shard child per
// worker whose [lo, hi) ranges partition the space in shard order, and
// every incumbent under a shard — and the merged result is
// bit-identical to the serial one.
func TestJournalShardedOrdering(t *testing.T) {
	data, res := searchJournal(t, 3)
	_, serial := searchJournal(t, 1)
	if !res.Allocation.Equal(serial.Allocation) || res.States != serial.States {
		t.Errorf("sharded result diverged from serial: %v/%d vs %v/%d",
			res.Allocation, res.States, serial.Allocation, serial.States)
	}

	spans := parseJournal(t, data)
	root := spans[len(spans)-1]
	if root.Name != "search.run" || root.Parent != 0 {
		t.Fatalf("last span = %s with parent %d, want the search.run root", root.Name, root.Parent)
	}
	shardOf := map[int64]int{}
	bounds := make([][2]int, 3)
	for _, sp := range spans {
		if sp.Trace != root.Trace {
			t.Fatalf("%s span in trace %s, want the search's %s", sp.Name, sp.Trace, root.Trace)
		}
		if sp.Name != "search.shard" {
			continue
		}
		w := int(sp.Attrs["shard"].(float64))
		if sp.Parent != root.Span || w < 0 || w >= 3 {
			t.Fatalf("shard span %+v", sp)
		}
		shardOf[sp.Span] = w
		bounds[w] = [2]int{int(sp.Attrs["lo"].(float64)), int(sp.Attrs["hi"].(float64))}
	}
	if len(shardOf) != 3 {
		t.Fatalf("%d search.shard spans, want 3", len(shardOf))
	}
	total := int(root.Attrs["total"].(float64))
	if bounds[0][0] != 0 || bounds[1][0] != bounds[0][1] || bounds[2][0] != bounds[1][1] || bounds[2][1] != total {
		t.Errorf("shard ranges %v do not partition [0, %d) in shard order", bounds, total)
	}
	for _, sp := range spans {
		if sp.Name != "search.incumbent" {
			continue
		}
		if w, ok := shardOf[sp.Parent]; !ok || int(sp.Attrs["shard"].(float64)) != w {
			t.Errorf("incumbent %+v is not under its shard's span", sp)
		}
	}
}
