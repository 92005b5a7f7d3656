package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/debug"
	"strings"
	"testing"

	"closnet/internal/stats"
)

// testBuild stands in for the recorder's build info.
var testBuild = &debug.BuildInfo{
	GoVersion: "go1.24.0",
	Settings: []debug.BuildSetting{
		{Key: "vcs.revision", Value: "3c6c2b45d7d6ed8aba534699b7fbf2c1ceb5793d"},
		{Key: "vcs.modified", Value: "true"},
	},
}

// testdata/bench.txt is the output of
//
//	go test -run '^$' -bench '^Benchmark(LexSearchPruned|DeltaTrace|ThroughputBound)$' \
//	    -benchmem -count 3 -benchtime 20x . ./internal/lp
//
// at GOMAXPROCS 2: two packages, three runs of each benchmark, a procs
// suffix, sub-benchmarks and a states/op unit.
func recordTranscript(t *testing.T) []byte {
	t.Helper()
	in, err := os.Open("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var out bytes.Buffer
	if err := record(in, &out, testBuild); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestRecordGolden(t *testing.T) {
	got := recordTranscript(t)
	want, err := os.ReadFile("testdata/bench.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from testdata/bench.golden.json:\n%s", got)
	}
}

// TestRecordMeans checks every recorded metric against stats.MeanCI95
// of its three samples, as read off the transcript by hand.
func TestRecordMeans(t *testing.T) {
	samples := map[string]map[string][]float64{
		"closnet BenchmarkLexSearchPruned": {
			"ns/op":     {81946, 86760, 36891},
			"states/op": {19, 19, 19},
			"B/op":      {22463, 22622, 22463},
			"allocs/op": {343, 345, 343},
		},
		"closnet BenchmarkDeltaTrace/incremental": {
			"ns/op":     {110919, 134431, 147295},
			"B/op":      {39488, 39488, 39488},
			"allocs/op": {245, 245, 245},
		},
		"closnet BenchmarkDeltaTrace/full": {
			"ns/op":     {1801014, 1533636, 1340183},
			"B/op":      {1295041, 1295013, 1295012},
			"allocs/op": {4075, 4075, 4075},
		},
		"closnet/internal/lp BenchmarkThroughputBound/bounder": {
			"ns/op":     {1182550, 1319503, 1316764},
			"B/op":      {676, 676, 676},
			"allocs/op": {1, 1, 1},
		},
		"closnet/internal/lp BenchmarkThroughputBound/reference": {
			"ns/op":     {18213554, 17513161, 16949429},
			"B/op":      {9279871, 9279874, 9279868},
			"allocs/op": {254731, 254731, 254731},
		},
	}
	var rep report
	if err := json.Unmarshal(recordTranscript(t), &rep); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for pkg, rows := range rep.Packages {
		for name, r := range rows {
			want, ok := samples[pkg+" "+name]
			if !ok {
				t.Errorf("unexpected row %s %s", pkg, name)
				continue
			}
			seen++
			if r.Runs != 3 {
				t.Errorf("%s %s: %d runs, want 3", pkg, name, r.Runs)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s %s: units %v, want %v", pkg, name, r.Metrics, want)
			}
			for unit, xs := range want {
				mean, hw := stats.MeanCI95(xs)
				if got := r.Metrics[unit]; got != (metric{Mean: mean, CI95: hw}) {
					t.Errorf("%s %s %s: got %+v, want mean %v ± %v", pkg, name, unit, got, mean, hw)
				}
			}
		}
	}
	if seen != len(samples) {
		t.Errorf("recorded %d of %d rows", seen, len(samples))
	}
}

// TestRecordRejects: a run with a failure, and input with no result,
// record nothing and return an error, which main turns into exit 1.
func TestRecordRejects(t *testing.T) {
	const header = "goos: linux\ngoarch: amd64\npkg: closnet\ncpu: Intel(R) Xeon(R) Processor\n"
	for name, in := range map[string]string{
		"empty":      "",
		"no results": header + "PASS\nok  \tclosnet\t0.004s\n",
		"fail": header +
			"BenchmarkLexSearchPruned-2   \t      20\t     81946 ns/op\t        19.00 states/op\n" +
			"--- FAIL: BenchmarkDeltaTrace/full-2\n" +
			"    bench_test.go:355: flow 3 has no path\n" +
			"--- FAIL: BenchmarkDeltaTrace\n" +
			"FAIL\nexit status 1\nFAIL\tclosnet\t0.130s\n",
		"build failed": "FAIL\tclosnet [build failed]\n",
	} {
		var out bytes.Buffer
		if err := record(strings.NewReader(in), &out, testBuild); err == nil {
			t.Errorf("%s: recorded without an error", name)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote %q", name, out.String())
		}
	}
}
