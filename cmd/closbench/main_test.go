package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"closnet/internal/obs"
)

func reportBlob(t *testing.T, benches int, mutate func(*Report)) []byte {
	t.Helper()
	rep := Report{Benches: make([]Bench, benches)}
	for i := range rep.Benches {
		rep.Benches[i] = Bench{Name: "b", Iterations: 1}
	}
	if mutate != nil {
		mutate(&rep)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func writeBlob(t *testing.T, path string, blob []byte) {
	t.Helper()
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGuardOverwrite: writing a report with fewer benchmarks than the
// existing file is refused unless forced; missing or unparseable
// existing files never block.
func TestGuardOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_search.json")

	if err := guardOverwrite(path, reportBlob(t, 1, nil), false); err != nil {
		t.Errorf("missing file blocked the write: %v", err)
	}

	writeBlob(t, path, reportBlob(t, 3, nil))
	if err := guardOverwrite(path, reportBlob(t, 2, nil), false); err == nil {
		t.Error("shrinking report overwrote without -force")
	}
	if err := guardOverwrite(path, reportBlob(t, 3, nil), false); err != nil {
		t.Errorf("equal-size report blocked: %v", err)
	}
	if err := guardOverwrite(path, reportBlob(t, 4, nil), false); err != nil {
		t.Errorf("larger report blocked: %v", err)
	}
	if err := guardOverwrite(path, reportBlob(t, 2, nil), true); err != nil {
		t.Errorf("-force did not override: %v", err)
	}

	writeBlob(t, path, []byte("not json"))
	if err := guardOverwrite(path, reportBlob(t, 0, nil), false); err != nil {
		t.Errorf("unparseable existing file blocked the write: %v", err)
	}
}

// TestGuardOverwriteScalars: a report whose headline speedup/reduction
// scalars would silently drop to zero (the signature of a partial run,
// e.g. -only-delta writing over the full artifact) is refused even when
// the benchmark count holds steady.
func TestGuardOverwriteScalars(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_search.json")
	full := func(r *Report) {
		r.EvaluatorSpeedup = 10.5
		r.StateReductionC5 = 91.4
		r.PruneReductionC5 = 6.2
		r.DeltaSpeedup = 5.6
	}
	writeBlob(t, path, reportBlob(t, 3, full))

	cases := []struct {
		name   string
		mutate func(*Report)
		wantOK bool
	}{
		{"all scalars kept", full, true},
		{"scalars changed but non-zero", func(r *Report) {
			full(r)
			r.DeltaSpeedup = 6.1
			r.PruneReductionC5 = 5.0
		}, true},
		{"delta speedup zeroed", func(r *Report) { full(r); r.DeltaSpeedup = 0 }, false},
		{"prune reduction zeroed", func(r *Report) { full(r); r.PruneReductionC5 = 0 }, false},
		{"evaluator speedup zeroed", func(r *Report) { full(r); r.EvaluatorSpeedup = 0 }, false},
		{"state reduction zeroed", func(r *Report) { full(r); r.StateReductionC5 = 0 }, false},
	}
	for _, tc := range cases {
		err := guardOverwrite(path, reportBlob(t, 3, tc.mutate), false)
		if tc.wantOK && err != nil {
			t.Errorf("%s: blocked: %v", tc.name, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("%s: scalar drop overwrote without -force", tc.name)
		}
	}

	// -force overrides the scalar guard too.
	if err := guardOverwrite(path, reportBlob(t, 3, func(r *Report) { full(r); r.DeltaSpeedup = 0 }), true); err != nil {
		t.Errorf("-force did not override the scalar guard: %v", err)
	}

	// A prior report without the scalars (all zero) never blocks: there
	// is nothing to lose.
	writeBlob(t, path, reportBlob(t, 3, nil))
	if err := guardOverwrite(path, reportBlob(t, 3, nil), false); err != nil {
		t.Errorf("zero-scalar prior report blocked the write: %v", err)
	}
}

// TestGuardOverwriteQuantiles: a recorded observability snapshot with
// timer or histogram quantile series must survive into the new report
// — a run that lost its instrumentation cannot silently clobber the
// percentiles — while empty series never block, and -force overrides.
func TestGuardOverwriteQuantiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_search.json")
	withObs := func(r *Report) {
		r.Obs = &obs.Snapshot{
			Timers: map[string]obs.TimerStats{
				"search.duration": {Count: 12, P50Ns: 100, P90Ns: 200, P99Ns: 300},
				"never.observed":  {},
			},
			Histograms: map[string]obs.HistogramStats{
				"core.fill": {Count: 7, P99Ns: 50},
			},
		}
	}
	writeBlob(t, path, reportBlob(t, 3, withObs))

	if err := guardOverwrite(path, reportBlob(t, 3, withObs), false); err != nil {
		t.Errorf("quantiles kept but write blocked: %v", err)
	}
	// Dropping the whole snapshot, the recorded timer, or the recorded
	// histogram is refused, and the error names the lost series.
	for name, mutate := range map[string]func(*Report){
		"snapshot dropped": func(r *Report) {},
		"timer dropped": func(r *Report) {
			withObs(r)
			delete(r.Obs.Timers, "search.duration")
		},
		"histogram dropped": func(r *Report) {
			withObs(r)
			delete(r.Obs.Histograms, "core.fill")
		},
	} {
		err := guardOverwrite(path, reportBlob(t, 3, mutate), false)
		if err == nil {
			t.Errorf("%s: overwrote without -force", name)
			continue
		}
		if !strings.Contains(err.Error(), "quantile series") {
			t.Errorf("%s: error does not name the quantile series: %v", name, err)
		}
	}
	// The never-observed timer (P99 == 0) holds no quantiles; dropping
	// only it is fine.
	if err := guardOverwrite(path, reportBlob(t, 3, func(r *Report) {
		withObs(r)
		delete(r.Obs.Timers, "never.observed")
	}), false); err != nil {
		t.Errorf("empty timer blocked the write: %v", err)
	}
	if err := guardOverwrite(path, reportBlob(t, 3, nil), true); err != nil {
		t.Errorf("-force did not override the quantile guard: %v", err)
	}
}
