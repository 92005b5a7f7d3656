package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json that compare and report apply.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

type namedRun struct {
	name string
	*runFile
}

func loadRuns(paths []string) ([]namedRun, error) {
	runs := make([]namedRun, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		runs[i] = namedRun{name: filepath.Base(p), runFile: new(runFile)}
		if err := json.Unmarshal(data, runs[i].runFile); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return runs, nil
}

// runTables is the compare and report subcommands: both read two sets
// of result files, A (the baseline) and B.
func runTables(cmd string, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench "+cmd, flag.ContinueOnError)
	fl.SetOutput(stderr)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition: the metrics' directions and bounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	files := fl.Args()
	cut := slices.Index(files, "--")
	if cut < 1 || cut == len(files)-1 {
		fmt.Fprintf(stderr, "usage: bench %s [-spec BENCHMARK.json] A.json... -- B.json...\n", cmd)
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	a, err := loadRuns(files[:cut])
	var b []namedRun
	if err == nil {
		b, err = loadRuns(files[cut+1:])
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rows := compare(sp, a, b)
	if cmd == "report" {
		writeReport(stdout, sp, a, b, rows)
		return 0
	}
	writeCompare(stdout, rows)
	for _, r := range rows {
		if r.verdict == "regressed" {
			return 1
		}
	}
	return 0
}

// row is one (workload, end-to-end metric) comparison.
type row struct {
	workload string
	metric   specMetric
	a, b     [3]float64 // q1, median, q3
	// change is the relative change of the median, signed so that a
	// positive change is a worsening.
	change float64
	// spread is the wider side's interquartile range over its median.
	spread  float64
	verdict string
}

// compare classifies every (workload, end-to-end metric) pair. A median
// worse by more than the bound is regressed, better by more than the
// bound improved. When either side's run-to-run spread exceeds the
// bound the pair is unresolved, unless every B run beats every A run.
func compare(sp *spec, a, b []namedRun) []row {
	var rows []row
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := row{workload: w.Name, metric: m, a: quartiles(xa), b: quartiles(xb)}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			r.change = sign * (r.b[1] - r.a[1]) / r.a[1]
			r.spread = max((r.a[2]-r.a[0])/r.a[1], (r.b[2]-r.b[0])/r.b[1])
			switch {
			case r.spread > m.Bound || math.IsNaN(r.spread):
				r.verdict = "unresolved"
				if allBetter(xa, xb, sign) {
					r.verdict = "improved"
				}
			case r.change > m.Bound:
				r.verdict = "regressed"
			case r.change < -m.Bound:
				r.verdict = "improved"
			default:
				r.verdict = "unchanged"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func values(runs []namedRun, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		for _, res := range r.Workloads {
			if m, ok := res.EndToEnd[metric]; ok && res.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// allBetter reports whether every b reads better than every a; sign is
// +1 when lower is better and -1 when higher is.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// quartiles returns q1, the median and q3 as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), so that spreads read the same here as in Python tooling.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func writeCompare(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tspread\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n", r.workload, r.metric.Name,
			fmtQuartiles(r.a, r.metric.Unit), fmtQuartiles(r.b, r.metric.Unit), 100*r.change, 100*r.spread, 100*r.metric.Bound, r.verdict)
	}
	tw.Flush()
}

func fmtQuartiles(q [3]float64, unit string) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", q[1], q[0], q[2], unit)
}

// writeReport renders the markdown tables of bench/README.md: the runs,
// the end-to-end comparison of the two sets, and the per-layer medians
// over every run.
func writeReport(w io.Writer, sp *spec, a, b []namedRun, rows []row) {
	fmt.Fprintln(w, "| set | file | seed | commit | go | nproc | window (s) |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, set := range []struct {
		name string
		runs []namedRun
	}{{"A", a}, {"B", b}} {
		for _, r := range set.runs {
			fmt.Fprintf(w, "| %s | %s | %d | %s | %s | %d | %g |\n", set.name, r.name, r.Seed, r.Commit, r.GoVersion, r.NumCPU, r.Seconds)
		}
	}

	fmt.Fprintf(w, "\nEnd to end, median [q1, q3] over %d (A) and %d (B) runs:\n\n", len(a), len(b))
	fmt.Fprintln(w, "| workload | metric | A | B | change | spread | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %s | %s | %+.1f%% | %.1f%% | %.0f%% | %s |\n", r.workload, r.metric.Name,
			fmtQuartiles(r.a, r.metric.Unit), fmtQuartiles(r.b, r.metric.Unit), 100*r.change, 100*r.spread, 100*r.metric.Bound, r.verdict)
	}

	all := append(slices.Clone(a), b...)
	fmt.Fprintf(w, "\nPer layer, median over all %d runs:\n\n", len(all))
	var names []string
	for _, wl := range sp.Workloads {
		names = append(names, wl.Name)
	}
	fmt.Fprintf(w, "| metric | unit | %s |\n", strings.Join(names, " | "))
	fmt.Fprintf(w, "|---|---|%s\n", strings.Repeat("---|", len(names)))
	for _, m := range sp.PerLayer {
		cells := make([]string, len(names))
		for i, wl := range names {
			var xs []float64
			for _, r := range all {
				for _, res := range r.Workloads {
					if v, ok := res.PerLayer[m.Name]; ok && res.Workload == wl {
						xs = append(xs, v.Value)
					}
				}
			}
			cells[i] = "–"
			if len(xs) > 0 {
				cells[i] = fmt.Sprintf("%.4g", quartiles(xs)[1])
			}
		}
		fmt.Fprintf(w, "| %s | %s | %s |\n", m.Name, m.Unit, strings.Join(cells, " | "))
	}
}
