package search

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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

// searchJournal runs a LexMaxMin search over the journal instance with a
// pinned run ID and a deterministic millisecond-step clock, returning
// the journal bytes and the search result.
func searchJournal(t *testing.T, workers int) ([]byte, *Result) {
	t.Helper()
	c, fs := journalInstance()
	var buf bytes.Buffer
	var tick int64
	j := obs.NewJournal(&buf,
		obs.WithRunID("golden"),
		obs.WithClock(func() int64 { tick += 1_000_000; return tick }))
	res, err := LexMaxMin(c, fs, Options{Workers: workers, Obs: &obs.Obs{J: j}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestJournalGoldenC3 pins the complete JSONL journal of a serial
// (Workers=1) canonical C_3 search byte-for-byte: the event ordering is
// the deterministic enumeration-and-merge order of the engine, the
// timestamps come from the injected clock, and every field set
// serializes with sorted keys. Regenerate with
//
//	go test ./internal/search -run TestJournalGoldenC3 -update-golden
func TestJournalGoldenC3(t *testing.T) {
	got, res := searchJournal(t, 1)

	golden := filepath.Join("testdata", "journal_c3.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	// The final search.end event must report the same state count the
	// search returned.
	events := parseJournal(t, got)
	last := events[len(events)-1]
	if last.Ev != "search.end" {
		t.Fatalf("last event = %s, want search.end", last.Ev)
	}
	if states := int(last.Fields["states"].(float64)); states != res.States {
		t.Errorf("search.end states = %d, Result.States = %d", states, res.States)
	}
}

type journalEvent struct {
	TNs    int64          `json:"t_ns"`
	Run    string         `json:"run"`
	Ev     string         `json:"ev"`
	Fields map[string]any `json:"fields"`
}

func parseJournal(t *testing.T, data []byte) []journalEvent {
	t.Helper()
	var events []journalEvent
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var e journalEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if e.Run != "golden" {
			t.Fatalf("event carries run ID %q, want golden", e.Run)
		}
		events = append(events, e)
	}
	return events
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
// journaled search.stop_rank event and to Result.States.
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
		j := obs.NewJournal(&buf, obs.WithRunID("golden"))
		res, err := ThroughputMaxMin(c, fs, Options{
			FullSpace: sc.full, Workers: sc.workers, Obs: &obs.Obs{Reg: reg, J: j},
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
		// A later shard may find an optimum, and journal its stop rank,
		// before an earlier shard lowers the stop: the search stops at the
		// lowest rank journaled, in whatever order the events landed.
		var eventRank int64 = -1
		for _, e := range parseJournal(t, buf.Bytes()) {
			if e.Ev != "search.stop_rank" {
				continue
			}
			if r := int64(e.Fields["rank"].(float64)); eventRank < 0 || r < eventRank {
				eventRank = r
			}
		}
		if eventRank != 2 {
			t.Errorf("full=%v workers=%d: search.stop_rank event rank = %d, want 2", sc.full, sc.workers, eventRank)
		}
	}
}

// TestJournalShardedOrdering: with several workers the per-state events
// interleave nondeterministically, but the structural order is fixed —
// search.start first, then every shard_start in ascending shard order
// (emitted before any worker runs), then the reduction's shard_merge
// events in ascending shard order, and search.end last. The merged
// result is bit-identical to the serial one.
func TestJournalShardedOrdering(t *testing.T) {
	data, res := searchJournal(t, 3)
	_, serial := searchJournal(t, 1)
	if !res.Allocation.Equal(serial.Allocation) || res.States != serial.States {
		t.Errorf("sharded result diverged from serial: %v/%d vs %v/%d",
			res.Allocation, res.States, serial.Allocation, serial.States)
	}

	events := parseJournal(t, data)
	if events[0].Ev != "search.start" {
		t.Errorf("first event = %s, want search.start", events[0].Ev)
	}
	if last := events[len(events)-1]; last.Ev != "search.end" {
		t.Errorf("last event = %s, want search.end", last.Ev)
	}
	var starts, merges []int
	lastStart := -1
	for i, e := range events {
		switch e.Ev {
		case "search.shard_start":
			starts = append(starts, int(e.Fields["shard"].(float64)))
			lastStart = i
		case "search.shard_merge":
			merges = append(merges, int(e.Fields["shard"].(float64)))
			if i < lastStart {
				t.Errorf("shard_merge at %d precedes shard_start at %d", i, lastStart)
			}
		}
	}
	for _, seq := range [][]int{starts, merges} {
		if len(seq) != 3 {
			t.Fatalf("want 3 shard events, got %v (starts=%v merges=%v)", seq, starts, merges)
		}
		for i, s := range seq {
			if s != i {
				t.Errorf("shard events out of order: %v", seq)
			}
		}
	}
}
