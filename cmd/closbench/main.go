// Command closbench measures the routing-search hot paths with the
// standard testing.Benchmark harness and persists the numbers as JSON
// (BENCH_search.json at the repository root via `make bench-json`), so
// performance claims in the documentation are regenerable artifacts
// rather than prose.
//
// It covers the two perf-critical layers:
//
//   - per-state evaluation: the int64 shared-denominator kernel vs the
//     pinned *big.Rat water filling (core.BlockEvaluator, one state per
//     block)
//   - routing-space enumeration: the default symmetry-canonical space vs
//     the full n^|F| space (search.LexMaxMin), including an n=5 instance
//     where canonicalization shrinks 5^7 = 78125 states to 855
//   - bound-guided pruning: the branch-and-bound mode (Options.Pruned)
//     vs the exhaustive canonical scan on the same instances, with the
//     pruned-over-exhaustive state ratio published per pair
//   - delta evaluation: the incremental evaluator replaying a seeded
//     64-event C_5 arrival/departure trace (core.IncrementalEvaluator)
//     vs per-event full recompute, with the ns/op ratio published as
//     delta_speedup
//
// Usage:
//
//	closbench                 print the JSON to stdout
//	closbench -o BENCH.json   write it to a file
//	closbench -o BENCH.json -force   overwrite even if the report shrinks
//	closbench -only-delta -min-delta-speedup 2   CI smoke: C_5
//	    incremental-vs-full delta pair only, non-zero exit below the bar
//
// Writing to an existing report file refuses to proceed when the new
// report would carry fewer benchmark entries than the one on disk, or
// would zero out a published speedup/reduction scalar (either usually
// means a partial run); -force overrides.
//
// The shared observability flags of internal/obs (-trace, -metrics,
// -cpuprofile, -memprofile, -debug-addr) are available as on every
// closnet tool; with -metrics the final registry snapshot is embedded
// in the report under "observability".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/engine"
	"closnet/internal/obs"
	"closnet/internal/search"
	"closnet/internal/topology"
)

// Bench is one benchmark row of the emitted JSON.
type Bench struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// States is the number of routing states one operation enumerates
	// (search benchmarks only).
	States int `json:"states,omitempty"`
	// StatesPerSec is States scaled by the measured op time.
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
}

// Report is the schema of BENCH_search.json.
type Report struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Benches   []Bench `json:"benchmarks"`
	// EvaluatorSpeedup is big.Rat ns/op over int64-kernel ns/op on the same
	// per-state evaluation workload.
	EvaluatorSpeedup float64 `json:"evaluator_speedup"`
	// StateReductionC5 is the full-space over canonical-space state count
	// for the 7-flow C_5 search instance.
	StateReductionC5 float64 `json:"state_reduction_c5"`
	// PruneReductionC5 is the canonical-space state count over the
	// branch-and-bound evaluation count (bound plus leaf evaluations) on
	// the same 7-flow C_5 instance — the headline gain of the pruned
	// search mode. The acceptance bar is ≥ 5.
	PruneReductionC5 float64 `json:"prune_reduction_c5"`
	// DeltaSpeedup is the full-recompute ns/op over the incremental
	// ns/op on the same 64-event C_5 arrival/departure trace: per event,
	// the full path rebuilds a core.BlockEvaluator and water-fills from
	// scratch, the incremental path replays the delta through one
	// core.IncrementalEvaluator (both produce bit-identical rates; the
	// core property tests pin that). The acceptance bar is ≥ 5.
	DeltaSpeedup float64 `json:"delta_speedup"`
	// Obs is the final metrics-registry snapshot of the run, present only
	// when closbench is invoked with -metrics.
	Obs *obs.Snapshot `json:"observability,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "closbench:", err)
		os.Exit(1)
	}
}

// benchInstance mirrors the contended collection of the repository
// benchmarks: flows alternate between a cyclic permutation and loopback
// pairs so the water filling has several freeze rounds per assignment.
func benchInstance(n, flows int) (*topology.Clos, core.Collection) {
	c := topology.MustClos(n)
	fs := core.Collection{}
	for f := 0; f < flows; f++ {
		i := f%n + 1
		if f%2 == 0 {
			fs = fs.Add(c.Source(i, 1), c.Dest(i%n+1, 1), 1)
		} else {
			fs = fs.Add(c.Source(i, 1), c.Dest(i, 1), 1)
		}
	}
	return c, fs
}

// benchEvaluator measures one max-min fair evaluation per op — a block
// of one state, materialized — on a contended C_4 instance, on the
// int64 kernel or pinned to big.Rat.
func benchEvaluator(forceBig bool) (Bench, error) {
	c, fs := benchInstance(4, 8)
	ev, err := core.NewBlockEvaluator(c, fs)
	if err != nil {
		return Bench{}, err
	}
	ev.ForceBig(forceBig)
	rng := rand.New(rand.NewSource(3))
	mas := make([]core.MiddleAssignment, 64)
	for i := range mas {
		mas[i] = make(core.MiddleAssignment, len(fs))
		for fi := range mas[i] {
			mas[i][fi] = 1 + rng.Intn(c.Size())
		}
	}
	name := "Evaluator"
	if forceBig {
		name = "EvaluatorBigRat"
	}
	return measure(name, 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ev.EvalBlock(mas[i%len(mas)], 1)
			if err != nil {
				b.Fatal(err)
			}
			res.Alloc(0)
		}
	})
}

// benchLexSearch measures one exhaustive lex-max-min search per op and
// records the per-search state count. The warm-up run carries the obs
// instrumentation (so -trace journals one search per benchmark and the
// registry counts its states); the timed loop runs with observability
// stripped so the published numbers stay comparable across runs with
// and without -metrics.
func benchLexSearch(name string, c *topology.Clos, fs core.Collection, opts search.Options) (Bench, error) {
	res, err := search.LexMaxMin(c, fs, opts)
	if err != nil {
		return Bench{}, err
	}
	timed := opts
	timed.Obs = nil
	return measure(name, res.States, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.LexMaxMin(c, fs, timed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// deltaEvent is one step of the dynamic-workload trace: an arrival
// (flow + middle) or the departure of the live flow at index depart
// (indices shift as earlier flows leave, exactly as both replayers
// maintain their live lists).
type deltaEvent struct {
	arrive bool
	flow   core.Flow
	middle int
	depart int
}

// deltaTrace generates the seeded 64-event C_5 arrival/departure trace
// both delta benchmarks replay: arrivals dominate (p = 0.6) so the live
// set grows into the tens of flows and the water filling has several
// freeze rounds per event.
func deltaTrace(c *topology.Clos, events int) []deltaEvent {
	rng := rand.New(rand.NewSource(7))
	evs := make([]deltaEvent, 0, events)
	live := 0
	for len(evs) < events {
		if live == 0 || rng.Float64() < 0.6 {
			evs = append(evs, deltaEvent{
				arrive: true,
				flow: core.Flow{
					Src: c.Source(rng.Intn(c.NumToRs())+1, rng.Intn(c.ServersPerToR())+1),
					Dst: c.Dest(rng.Intn(c.NumToRs())+1, rng.Intn(c.ServersPerToR())+1),
				},
				middle: rng.Intn(c.Size()) + 1,
			})
			live++
		} else {
			evs = append(evs, deltaEvent{depart: rng.Intn(live)})
			live--
		}
	}
	return evs
}

// benchDeltaIncremental measures one full trace replay per op through a
// fresh core.IncrementalEvaluator: every event is one Arrive/Depart
// call whose refill reuses the saturated-set prefix of the previous
// fill.
func benchDeltaIncremental(c *topology.Clos, evs []deltaEvent) (Bench, error) {
	return measure("DeltaEvalIncrementalC5", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ie := core.NewIncrementalEvaluator(c)
			handles := make([]core.FlowID, 0, len(evs))
			for _, ev := range evs {
				if ev.arrive {
					h, err := ie.Arrive(ev.flow, ev.middle)
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, h)
				} else {
					h := handles[ev.depart]
					handles = append(handles[:ev.depart], handles[ev.depart+1:]...)
					if err := ie.Depart(h); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// benchDeltaFull measures the same trace with the pre-incremental
// discipline: after every event, build a fresh core.BlockEvaluator over
// the live flow set and water-fill from scratch.
func benchDeltaFull(c *topology.Clos, evs []deltaEvent) (Bench, error) {
	return measure("DeltaEvalFullC5", 0, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flows := make(core.Collection, 0, len(evs))
			ma := make(core.MiddleAssignment, 0, len(evs))
			for _, ev := range evs {
				if ev.arrive {
					flows = append(flows, ev.flow)
					ma = append(ma, ev.middle)
				} else {
					flows = append(flows[:ev.depart], flows[ev.depart+1:]...)
					ma = append(ma[:ev.depart], ma[ev.depart+1:]...)
				}
				if len(flows) == 0 {
					continue
				}
				ev2, err := core.NewBlockEvaluator(c, flows)
				if err != nil {
					b.Fatal(err)
				}
				res, err := ev2.EvalBlock(ma, 1)
				if err != nil {
					b.Fatal(err)
				}
				res.Alloc(0)
			}
		}
	})
}

func measure(name string, states int, fn func(b *testing.B)) (Bench, error) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		return Bench{}, fmt.Errorf("%s: benchmark failed", name)
	}
	out := Bench{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		States:      states,
	}
	if states > 0 && r.NsPerOp() > 0 {
		out.StatesPerSec = float64(states) * 1e9 / float64(r.NsPerOp())
	}
	return out, nil
}

func run(args []string) error {
	fl := flag.NewFlagSet("closbench", flag.ContinueOnError)
	out := fl.String("o", "", "write the JSON report to this file (default: stdout)")
	force := fl.Bool("force", false, "overwrite -o even when the new report has fewer benchmarks than the existing file")
	onlyDelta := fl.Bool("only-delta", false, "run only the C_5 incremental-vs-full delta pair (the CI smoke subset)")
	minDeltaSpeedup := fl.Float64("min-delta-speedup", 0, "exit non-zero when delta_speedup falls below this (0 disables)")
	ob := obs.AddFlags(fl)
	if err := fl.Parse(args); err != nil {
		return err
	}
	orun, err := ob.Start("closbench", os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := orun.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "closbench:", cerr)
		}
	}()
	o := orun.Obs
	// The engine is the one place search options are assembled; each
	// bench tweaks only its space and worker count.
	eng := engine.New(engine.Options{Obs: o})
	searchOpts := func(full bool, workers int) search.Options {
		opts := eng.SearchOptions(context.Background())
		opts.FullSpace, opts.Workers = full, workers
		return opts
	}
	prunedOpts := func() search.Options {
		opts := eng.SearchOptions(context.Background())
		opts.Pruned = true
		return opts
	}

	rep := Report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}

	c5, fs5 := benchInstance(5, 7)
	if !*onlyDelta {
		fast, err := benchEvaluator(false)
		if err != nil {
			return err
		}
		big, err := benchEvaluator(true)
		if err != nil {
			return err
		}
		rep.Benches = append(rep.Benches, fast, big)
		if fast.NsPerOp > 0 {
			rep.EvaluatorSpeedup = float64(big.NsPerOp) / float64(fast.NsPerOp)
		}

		ex, err := adversary.Example23()
		if err != nil {
			return err
		}
		serialFull, err := benchLexSearch("LexSearchFullExample23",
			ex.Clos, ex.Flows, searchOpts(true, 1))
		if err != nil {
			return err
		}
		serialCanon, err := benchLexSearch("LexSearchCanonicalExample23",
			ex.Clos, ex.Flows, searchOpts(false, 1))
		if err != nil {
			return err
		}
		prunedEx, err := benchLexSearch("LexSearchPrunedExample23",
			ex.Clos, ex.Flows, prunedOpts())
		if err != nil {
			return err
		}
		rep.Benches = append(rep.Benches, serialFull, serialCanon, prunedEx)

		fullC5, err := benchLexSearch("LexSearchFullC5", c5, fs5, searchOpts(true, 0))
		if err != nil {
			return err
		}
		canonC5, err := benchLexSearch("LexSearchCanonicalC5", c5, fs5, searchOpts(false, 0))
		if err != nil {
			return err
		}
		prunedC5, err := benchLexSearch("LexSearchPrunedC5", c5, fs5, prunedOpts())
		if err != nil {
			return err
		}
		rep.Benches = append(rep.Benches, fullC5, canonC5, prunedC5)
		if canonC5.States > 0 {
			rep.StateReductionC5 = float64(fullC5.States) / float64(canonC5.States)
		}
		if prunedC5.States > 0 {
			rep.PruneReductionC5 = float64(canonC5.States) / float64(prunedC5.States)
		}
	}
	trace := deltaTrace(c5, 64)
	incC5, err := benchDeltaIncremental(c5, trace)
	if err != nil {
		return err
	}
	fullDeltaC5, err := benchDeltaFull(c5, trace)
	if err != nil {
		return err
	}
	rep.Benches = append(rep.Benches, incC5, fullDeltaC5)
	if incC5.NsPerOp > 0 {
		rep.DeltaSpeedup = float64(fullDeltaC5.NsPerOp) / float64(incC5.NsPerOp)
	}
	if *minDeltaSpeedup > 0 && rep.DeltaSpeedup < *minDeltaSpeedup {
		return fmt.Errorf("delta_speedup = %.2f is below the -min-delta-speedup bar %.2f",
			rep.DeltaSpeedup, *minDeltaSpeedup)
	}

	if reg := o.Registry(); reg != nil {
		snap := reg.Snapshot()
		rep.Obs = &snap
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := guardOverwrite(*out, blob, *force); err != nil {
		return err
	}
	return os.WriteFile(*out, blob, 0o644)
}

// guardOverwrite refuses to replace an existing report with one that
// would lose information — fewer benchmark entries, or a published
// headline scalar (any "*speedup*" or "*reduction*" key, e.g.
// evaluator_speedup, delta_speedup, prune_reduction_c5) dropping to
// zero or disappearing. Both are the signature of a partial run
// clobbering a complete artifact; force overrides. A missing or
// unparseable existing file never blocks the write.
func guardOverwrite(path string, newBlob []byte, force bool) error {
	if force {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil // no prior report (or unreadable): nothing to protect
	}
	var prev Report
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil // not a report we understand: nothing to protect
	}
	var next Report
	if err := json.Unmarshal(newBlob, &next); err != nil {
		return fmt.Errorf("new report is not valid JSON: %w", err)
	}
	if len(next.Benches) < len(prev.Benches) {
		return fmt.Errorf("refusing to overwrite %s: new report has %d benchmarks, existing has %d (use -force to override)",
			path, len(next.Benches), len(prev.Benches))
	}
	// Scalar guard over the raw top-level keys, not the Report struct,
	// so a scalar added later is protected without touching this code.
	var prevRaw, nextRaw map[string]any
	if err := json.Unmarshal(data, &prevRaw); err != nil {
		return nil
	}
	if err := json.Unmarshal(newBlob, &nextRaw); err != nil {
		return fmt.Errorf("new report is not valid JSON: %w", err)
	}
	for key, v := range prevRaw {
		if !strings.Contains(key, "speedup") && !strings.Contains(key, "reduction") {
			continue
		}
		f, ok := v.(float64)
		if !ok || f == 0 {
			continue
		}
		if nf, ok := nextRaw[key].(float64); !ok || nf == 0 {
			return fmt.Errorf("refusing to overwrite %s: scalar %q (%.4g) would disappear from the report (use -force to override)",
				path, key, f)
		}
	}
	// Quantile guard: a timer or histogram that published latency
	// quantiles in the recorded snapshot must still exist in the new one
	// — a run without -obs (or with an instrumentation regression)
	// silently dropping the percentile series is exactly the partial-run
	// clobber this guard exists for.
	if prev.Obs != nil {
		missing := func(kind, name string) error {
			return fmt.Errorf("refusing to overwrite %s: recorded quantile series %s.%s would disappear from the report (use -force to override)",
				path, kind, name)
		}
		for name, ts := range prev.Obs.Timers {
			if ts.P99Ns == 0 {
				continue
			}
			if next.Obs == nil {
				return missing("timers", name)
			}
			if _, ok := next.Obs.Timers[name]; !ok {
				return missing("timers", name)
			}
		}
		for name, hs := range prev.Obs.Histograms {
			if hs.Count == 0 {
				continue
			}
			if next.Obs == nil {
				return missing("histograms", name)
			}
			if _, ok := next.Obs.Histograms[name]; !ok {
				return missing("histograms", name)
			}
		}
	}
	return nil
}
