// Command bench measures closnetd end to end and layer by layer.
//
// It generates five seeded workloads with internal/gen, serves each
// from a default server.New behind a 127.0.0.1 listener, drives it in a
// closed loop from the same process, and checks every response against
// in-process engine.Run. With -trace 1 it also replays the same inputs
// in-process, without HTTP, and times each module's public function.
// Run it from the repository root through bench/run.sh, which builds
// this module into .bench_build/:
//
//	bash bench/run.sh -seed 1 -o out.json
//	bash bench/run.sh --workload evaluate-cold --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh compare A.json... -- B.json...
//	bash bench/run.sh report A.json... -- B.json...
//
// Every metric prints as "<workload> <metric> <value> <unit>". With
// -workload, the last line is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). The exit status is non-zero when any response was wrong
// or missing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a closnetd client sees, per workload.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"error_rate", "fraction"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MiB"},
}

// errorRate is reported but left out of the JSON result line, which
// carries the failure count itself.
const errorRate = "error_rate"

// perLayer are the metrics of single layers. The ratios and process
// figures are read from the server's registry and the Go runtime over
// the timed window; the rest come from the layer pass.
var perLayer = []metricDef{
	{"server.handler_us", "us"},
	{"server.handler_us.p99", "us"},
	{"server.self_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced_ratio", "ratio"},
	{"server.rejects", "count"},
	{"codec.decode_us", "us"},
	{"codec.canonical_hash_us", "us"},
	{"codec.topology_hash_us", "us"},
	{"codec.request_kb", "KiB"},
	{"codec.response_kb", "KiB"},
	{"topology.build_us", "us"},
	{"engine.prepare_us", "us"},
	{"engine.compute_us", "us"},
	{"engine.compute_us.p99", "us"},
	{"engine.compute_self_us", "us"},
	{"engine.evaluator_reuse_ratio", "ratio"},
	{"engine.batch_item_us", "us"},
	{"engine.session_open_us", "us"},
	{"engine.session_delta_us", "us"},
	{"engine.session_delta_us.p99", "us"},
	{"core.evaluator_build_us", "us"},
	{"core.block_fill_us", "us"},
	{"core.block_promotions_ratio", "ratio"},
	{"core.delta_us", "us"},
	{"core.delta_us.p99", "us"},
	{"core.delta_levels_skipped_per_fill", "ratio"},
	{"search.lex_pruned_us", "us"},
	{"search.lex_pruned_us.p99", "us"},
	{"search.lex_exhaustive_us", "us"},
	{"search.throughput_pruned_us", "us"},
	{"search.throughput_pruned_us.p99", "us"},
	{"search.states_per_req.lex_pruned", "states"},
	{"search.states_per_req.lex_exhaustive", "states"},
	{"search.states_per_req.throughput_pruned", "states"},
	{"process.alloc_kb_per_req", "KiB"},
	{"process.gc_per_1k_req", "count"},
	{"process.cpu_util", "cores"},
}

// runFile is the JSON file -o writes, and what compare and report read.
type runFile struct {
	Seed      int64     `json:"seed"`
	Commit    string    `json:"commit"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"nproc"`
	Seconds   float64   `json:"seconds"`
	Workloads []*result `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && (args[0] == "compare" || args[0] == "report") {
		return runTables(args[0], args[1:], stdout, stderr)
	}
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload = fl.String("workload", "", "run one workload (default: all): "+strings.Join(workloadNames, ", "))
		seed     = fl.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fl.Float64("seconds", 15, "timed window per workload, in seconds (under 30)")
		trace    = fl.Int("trace", 1, "1: also run the layer pass and report per-layer metrics; 0: end-to-end only")
		out      = fl.String("o", "", "write every result, with seed, commit, go version and nproc, to this JSON file")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	switch {
	case fl.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fl.Arg(0))
		return 2
	case *workload != "" && !slices.Contains(workloadNames, *workload):
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	case *seconds <= 0 || *seconds >= 30:
		fmt.Fprintf(stderr, "bench: -seconds must be in (0, 30), got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *workload != "":
		names = []string{*workload}
	}

	rf := &runFile{Seed: *seed, Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: *seconds}
	o := defaultOptions(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	var failed int64
	for _, name := range names {
		fmt.Fprintf(stderr, "bench: %s: seed %d, %gs window\n", name, *seed, *seconds)
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		rf.Workloads = append(rf.Workloads, res)
		failed += res.Failed
		printMetrics(stdout, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *workload != "" {
		res := rf.Workloads[0]
		line := struct {
			Correct   bool               `json:"correct"`
			Attempted int64              `json:"attempted"`
			Failed    int64              `json:"failed"`
			Metrics   map[string]measure `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, res.PerLayer}
		if *trace == 0 {
			line.Metrics = make(map[string]measure)
			for k, v := range res.EndToEnd {
				if k != errorRate {
					line.Metrics[k] = v
				}
			}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d requests failed or returned a wrong body\n", failed)
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, res *result) {
	for _, set := range []struct {
		defs []metricDef
		vals map[string]measure
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		if set.vals == nil {
			continue
		}
		for _, d := range set.defs {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, d.name, set.vals[d.name].Value, d.unit)
		}
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision" && len(s.Value) >= 12:
			rev = s.Value[:12]
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
