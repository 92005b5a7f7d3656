// Command closverify checks the paper's three theorem bounds against the
// allocation engine over configurable parameter ranges, exiting non-zero
// on any violation. It is the repository's self-check: every inequality
// the paper proves is re-measured, not assumed.
//
// Usage:
//
//	closverify               verify with default ranges
//	closverify -max-n 9 -max-k 32 -v
//	closverify -workers 1    force the serial feasibility search
//	closverify -cpuprofile cpu.pprof -memprofile mem.pprof
//	closverify -metrics -trace verify.jsonl
//	closverify -batch scenarios/ -op search:lex
//
// -batch switches the tool into corpus-sweep mode: instead of the
// theorem checks it runs the given engine op over every scenario file
// in a directory (or one file), through engine.RunBatch — the same
// entry point the closnetd /v1/batch endpoint uses — and prints the
// response bodies in deterministic file order, one JSON document per
// line. The output is byte-identical to what the HTTP endpoints would
// return for the same scenarios.
//
// The shared observability flags (internal/obs) journal every check as
// a verify.check span under the run's root span and count
// checks/violations in the metrics registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"closnet"
	"closnet/internal/codec"
	"closnet/internal/engine"
	"closnet/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "closverify:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("closverify", flag.ContinueOnError)
	var (
		maxN    = fl.Int("max-n", 7, "largest network size to verify")
		maxK    = fl.Int("max-k", 16, "largest multiplicity to verify")
		verbose = fl.Bool("v", false, "print each check")
		batch   = fl.String("batch", "", "sweep mode: scenario JSON file or directory of them to run -op over")
		batchOp = fl.String("op", engine.OpEvaluate, "engine op for -batch (evaluate, doom, search:lex, search:throughput, search:relative, or the pruned branch-and-bound variants search:lex:pruned, search:throughput:pruned)")
		ef      = engine.AddFlags(fl)
		ob      = obs.AddFlags(fl)
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	orun, err := ob.Start("closverify", os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := orun.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "closverify:", cerr)
		}
	}()
	eng := ef.Engine(orun.Obs)
	if *batch != "" {
		return runBatch(eng, *batch, *batchOp, out)
	}
	workers := eng.SearchOptions(context.Background()).Workers
	reg := orun.Obs.Registry()
	cChecks := reg.Counter("verify.checks")
	cViolations := reg.Counter("verify.violations")
	checks := 0
	report := func(name string, ok bool, detail string) error {
		checks++
		cChecks.Inc()
		sp := obs.Start(orun.Context(), "verify.check")
		sp.Str("name", name).Bool("ok", ok).Str("detail", detail).End()
		if *verbose || !ok {
			status := "ok"
			if !ok {
				status = "VIOLATED"
			}
			fmt.Fprintf(out, "%-60s %s %s\n", name, status, detail)
		}
		if !ok {
			cViolations.Inc()
			return fmt.Errorf("bound violated: %s (%s)", name, detail)
		}
		return nil
	}

	if err := verifyTheorem34(*maxN, *maxK, report); err != nil {
		return err
	}
	if err := verifyTheorem42(min(*maxN, 5), workers, report); err != nil {
		return err
	}
	if err := verifyTheorem43(*maxN, report); err != nil {
		return err
	}
	if err := verifyTheorem54(*maxN, *maxK, report); err != nil {
		return err
	}
	if err := verifySplittable(report); err != nil {
		return err
	}
	if err := verifyScheduling(*maxK, report); err != nil {
		return err
	}
	if err := verifyRearrangeability(workers, report); err != nil {
		return err
	}
	if err := verifyClaim45(2**maxN, report); err != nil {
		return err
	}
	fmt.Fprintf(out, "all %d checks passed\n", checks)
	return nil
}

// runBatch is the -batch corpus-sweep mode: load every scenario under
// path (a single JSON file, or a directory whose *.json files are taken
// in sorted order), run op over all of them through engine.RunBatch
// with bounded fan-out, and print the deterministic response bodies in
// file order — the same bytes N calls to the closnetd endpoints would
// return. Any failing scenario is reported on stderr with its file
// name; the sweep still finishes the rest and exits non-zero.
func runBatch(eng *engine.Engine, path, op string, out io.Writer) error {
	paths, err := batchPaths(path)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("batch: no scenario files under %s", path)
	}
	reqs := make([]engine.Request, len(paths))
	for i, p := range paths {
		scen, err := codec.LoadFile(p)
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		reqs[i] = engine.Request{Op: op, Scenario: scen}
	}
	results := eng.RunBatch(context.Background(), reqs, runtime.GOMAXPROCS(0), nil)
	failed := 0
	for i, res := range results {
		if res.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "closverify: batch: %s: %v\n", paths[i], res.Err)
			continue
		}
		if _, err := out.Write(res.Resp.Body); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("batch: %d of %d scenarios failed", failed, len(paths))
	}
	return nil
}

// batchPaths resolves the -batch argument to the scenario files it
// names: the file itself, or a directory's *.json entries sorted by
// name so sweeps are deterministic.
func batchPaths(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		paths = append(paths, filepath.Join(path, e.Name()))
	}
	sort.Strings(paths)
	return paths, nil
}

// verifyTheorem34: T^MmF ≥ T^MT/2 and the adversarial ratio formula.
func verifyTheorem34(maxN, maxK int, report func(string, bool, string) error) error {
	for n := 1; n <= maxN; n++ {
		for k := 1; k <= maxK; k *= 2 {
			in, err := closnet.Theorem34(n, k)
			if err != nil {
				return err
			}
			mmf, err := closnet.MacroMaxMinFair(in.Macro, in.MacroFlows)
			if err != nil {
				return err
			}
			tm := closnet.Throughput(mmf)
			// T^MT = 2 on this family; bound: 2*T^MmF ≥ T^MT.
			lhs := new(big.Rat).Mul(closnet.R(2, 1), tm)
			ok := lhs.Cmp(closnet.R(2, 1)) >= 0
			want := closnet.R(int64(k+2), int64(k+1))
			okExact := tm.Cmp(want) == 0
			name := fmt.Sprintf("theorem 3.4 n=%d k=%d", n, k)
			if err := report(name, ok && okExact, fmt.Sprintf("T^MmF=%v", tm)); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyTheorem42: the macro rates are unroutable.
func verifyTheorem42(maxN, workers int, report func(string, bool, string) error) error {
	for n := 3; n <= maxN; n++ {
		in, err := closnet.Theorem42(n)
		if err != nil {
			return err
		}
		_, ok, err := closnet.FeasibleRouting(context.Background(), in.Clos, in.Flows, in.MacroRates, 0, workers)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("theorem 4.2 n=%d unroutable", n)
		if err := report(name, !ok, fmt.Sprintf("%d flows", len(in.Flows))); err != nil {
			return err
		}
	}
	return nil
}

// verifyTheorem43: the witness routing yields exactly the posited rates
// and the type-3 flow sits at 1/n.
func verifyTheorem43(maxN int, report func(string, bool, string) error) error {
	for n := 3; n <= maxN; n++ {
		in, err := closnet.Theorem43(n)
		if err != nil {
			return err
		}
		a, err := closnet.ClosMaxMinFair(in.Clos, in.Flows, in.Witness)
		if err != nil {
			return err
		}
		ok := a.Equal(in.WitnessRates)
		t3 := in.FlowsOfType(closnet.Type3)[0]
		ok = ok && a[t3].Cmp(closnet.R(1, int64(n))) == 0
		name := fmt.Sprintf("theorem 4.3 n=%d starvation 1/%d", n, n)
		if err := report(name, ok, fmt.Sprintf("type-3 rate %v", a[t3])); err != nil {
			return err
		}
	}
	return nil
}

// verifyTheorem54: T(doom) ≤ 2·T^MmF and equals n-2 where the closed
// form applies.
func verifyTheorem54(maxN, maxK int, report func(string, bool, string) error) error {
	for n := 3; n <= maxN; n += 2 {
		for k := 1; k <= maxK; k *= 4 {
			in, err := closnet.Theorem54(n, k)
			if err != nil {
				return err
			}
			macro, err := closnet.MacroMaxMinFair(in.Macro, in.MacroFlows)
			if err != nil {
				return err
			}
			res, err := closnet.DoomSwitch(in.Clos, in.Flows)
			if err != nil {
				return err
			}
			a, err := closnet.ClosMaxMinFair(in.Clos, in.Flows, res.Assignment)
			if err != nil {
				return err
			}
			td, tm := closnet.Throughput(a), closnet.Throughput(macro)
			bound := new(big.Rat).Mul(closnet.R(2, 1), tm)
			ok := td.Cmp(bound) <= 0
			if in.ExactWitness {
				ok = ok && td.Cmp(closnet.R(int64(n-2), 1)) == 0
			}
			name := fmt.Sprintf("theorem 5.4 n=%d k=%d", n, k)
			if err := report(name, ok, fmt.Sprintf("T=%v vs 2x%v", td, tm)); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifySplittable: with splittable flows, the LP max-min rates in the
// Clos network equal the macro-switch rates exactly (demand
// satisfaction, §1) — even on the Theorem 4.2 family whose unsplittable
// rates are unroutable.
func verifySplittable(report func(string, bool, string) error) error {
	for _, build := range []func() (*closnet.AdversarialInstance, error){
		closnet.Example23,
		func() (*closnet.AdversarialInstance, error) { return closnet.Theorem42(3) },
	} {
		in, err := build()
		if err != nil {
			return err
		}
		paths, err := closnet.ClosAllPaths(in.Clos, in.Flows)
		if err != nil {
			return err
		}
		rates, err := closnet.SplittableMaxMin(in.Clos.Network(), in.Flows, paths)
		if err != nil {
			return err
		}
		ok := rates.Equal(in.MacroRates)
		if err := report("splittable demand satisfaction: "+in.Name, ok, ""); err != nil {
			return err
		}
	}
	return nil
}

// verifyScheduling: on the Theorem 3.4 family with unit flows, fair
// sharing finishes every flow at t = k+1 while the matching scheduler
// beats it on average (§7 R1).
func verifyScheduling(maxK int, report func(string, bool, string) error) error {
	for k := 1; k <= maxK; k *= 4 {
		in, err := closnet.Theorem34(1, k)
		if err != nil {
			return err
		}
		r := make(closnet.Routing, len(in.MacroFlows))
		for fi, f := range in.MacroFlows {
			p, err := in.Macro.Path(f.Src, f.Dst)
			if err != nil {
				return err
			}
			r[fi] = p
		}
		sizes := make(closnet.Vec, len(in.MacroFlows))
		for i := range sizes {
			sizes[i] = closnet.R(1, 1)
		}
		fair, err := closnet.FairSharingFCT(in.Macro.Network(), in.MacroFlows, r, sizes)
		if err != nil {
			return err
		}
		sched, err := closnet.MatchingScheduleFCT(in.MacroFlows, sizes)
		if err != nil {
			return err
		}
		fAvg, sAvg := closnet.AverageFCT(fair), closnet.AverageFCT(sched)
		ok := fAvg.Cmp(closnet.R(int64(k+1), 1)) == 0 && sAvg.Cmp(fAvg) < 0
		name := fmt.Sprintf("scheduling beats fair sharing k=%d", k)
		if err := report(name, ok, fmt.Sprintf("fair=%v sched=%v", fAvg, sAvg)); err != nil {
			return err
		}
	}
	return nil
}

// verifyRearrangeability: the Theorem 4.2 (n=3) demands are unroutable
// at 3 middles but routable at 4, inside the 2n-1 conjecture bound.
func verifyRearrangeability(workers int, report func(string, bool, string) error) error {
	in, err := closnet.Theorem42(3)
	if err != nil {
		return err
	}
	m, ok, err := closnet.MinMiddlesToRoute(context.Background(), in.Clos, in.Flows, in.MacroRates, 5, 0, workers)
	if err != nil {
		return err
	}
	good := ok && m == 4
	return report("rearrangeability theorem 4.2 n=3 needs 4 middles", good, fmt.Sprintf("m=%d", m))
}

// verifyClaim45 machine-checks the counting argument of Claim 4.5 for
// every size up to the given bound, extending the Theorem 4.3
// certification beyond exhaustively checkable instances.
func verifyClaim45(maxN int, report func(string, bool, string) error) error {
	for n := 3; n <= maxN; n++ {
		err := closnet.VerifyClaim45Arithmetic(n)
		name := fmt.Sprintf("claim 4.5 arithmetic n=%d", n)
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		if rerr := report(name, err == nil, detail); rerr != nil {
			return rerr
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
