// Command benchjson records `go test -bench` output as JSON: it reads
// the benchmark text on stdin and writes one summary on stdout.
//
//	go test -run '^$' -bench . -benchmem -count 10 ./internal/core |
//	    go run -buildvcs=true ./internal/stats/benchjson > BENCH.json
//
// The summary holds the go version, the commit and whether the tree was
// modified, all from the recorder's own build info (go run stamps no
// commit unless given -buildvcs=true); the goos, goarch and cpu of the
// test header; and, for each package and benchmark, the number of runs
// and, for each reported unit, the mean and the half-width of its 95%
// interval (stats.MeanCI95). Benchmark names lose their -N GOMAXPROCS
// suffix. It exits 1, writing nothing, on a FAIL line or on input that
// holds no benchmark result.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"

	"closnet/internal/stats"
)

// report is the recorded summary; Packages maps a package path to its
// benchmarks by name.
type report struct {
	GoVersion string                    `json:"go_version"`
	Commit    string                    `json:"commit"`
	Modified  bool                      `json:"modified"`
	GOOS      string                    `json:"goos"`
	GOARCH    string                    `json:"goarch"`
	CPU       string                    `json:"cpu"`
	Packages  map[string]map[string]row `json:"packages"`
}

// row is one benchmark over its runs; Metrics maps a unit (ns/op, B/op,
// allocs/op or one from b.ReportMetric) to its mean over the runs.
type row struct {
	Runs    int               `json:"runs"`
	Metrics map[string]metric `json:"metrics"`
}

type metric struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
}

func main() {
	bi, _ := debug.ReadBuildInfo()
	if err := record(os.Stdin, os.Stdout, bi); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// record summarizes the benchmark text on in and writes the JSON to out
// only once the whole input has been read without a failure.
func record(in io.Reader, out io.Writer, bi *debug.BuildInfo) error {
	rep := report{Packages: map[string]map[string]row{}}
	if bi != nil {
		rep.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rep.Commit = s.Value
			case "vcs.modified":
				rep.Modified = s.Value == "true"
			}
		}
	}
	type key struct{ pkg, name string }
	runs := map[key]int{}
	samples := map[key]map[string][]float64{}
	pkg := ""
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return fmt.Errorf("benchmark run failed: %s", line)
		}
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "goos":
				rep.GOOS = v
			case "goarch":
				rep.GOARCH = v
			case "cpu":
				rep.CPU = v
			case "pkg":
				pkg = v
			}
			continue
		}
		// A result line: name, iterations, then value-unit pairs.
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		k := key{pkg, stripProcs(f[0])}
		if samples[k] == nil {
			samples[k] = map[string][]float64{}
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return fmt.Errorf("malformed result line %q: %w", line, err)
			}
			samples[k][f[i+1]] = append(samples[k][f[i+1]], v)
		}
		runs[k]++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading benchmark output: %w", err)
	}
	if len(runs) == 0 {
		return errors.New("no benchmark results in the input")
	}
	for k, units := range samples {
		r := row{Runs: runs[k], Metrics: make(map[string]metric, len(units))}
		for unit, xs := range units {
			mean, hw := stats.MeanCI95(xs)
			r.Metrics[unit] = metric{Mean: mean, CI95: hw}
		}
		if rep.Packages[k.pkg] == nil {
			rep.Packages[k.pkg] = map[string]row{}
		}
		rep.Packages[k.pkg][k.name] = r
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = out.Write(append(blob, '\n'))
	return err
}

// stripProcs drops the -N suffix go test appends to a benchmark's name
// when GOMAXPROCS is above 1.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
