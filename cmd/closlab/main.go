// Command closlab regenerates the paper's figures and bounds as tables.
//
// Usage:
//
//	closlab -list              list available experiments
//	closlab -exp T1            run one experiment
//	closlab -all               run every experiment
//	closlab -exp S1 -csv       emit CSV (or -json) instead of aligned text
//	closlab -exp A1 -workers 1 force the serial routing-space search
//	closlab -all -cpuprofile cpu.pprof -memprofile mem.pprof
//	closlab -exp T2 -metrics -trace trace.jsonl
//
// Experiment IDs follow DESIGN.md's per-experiment index: F1, F2, T1,
// F3, T2, F4, T3, S1, S1b, S2, P1, E1, R1, M1, D1, O1, A1.
//
// The shared engine flags (internal/engine): -workers sets the
// enumeration worker count for every exhaustive routing-space search an
// experiment launches (0 = one worker per core, 1 = serial) and
// -max-states caps each enumeration. The tables are bit-identical for
// every setting; only wall-clock time changes.
//
// The shared observability flags (internal/obs): -metrics prints live
// search progress and a final metrics summary on stderr, -trace writes
// a JSONL journal of trace spans (an experiment span per experiment),
// -debug-addr serves expvar/pprof, and -cpuprofile/-memprofile capture
// pprof profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"closnet"
	"closnet/internal/engine"
	"closnet/internal/experiments"
	"closnet/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "closlab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("closlab", flag.ContinueOnError)
	var (
		list = fl.Bool("list", false, "list available experiments")
		exp  = fl.String("exp", "", "experiment ID to run (e.g. F1, T3)")
		all  = fl.Bool("all", false, "run every experiment")
		csv  = fl.Bool("csv", false, "emit CSV instead of aligned text")
		js   = fl.Bool("json", false, "emit JSON instead of aligned text")
		ef   = engine.AddFlags(fl)
		ob   = obs.AddFlags(fl)
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	orun, err := ob.Start("closlab", os.Stderr)
	if err != nil {
		return err
	}
	experiments.Engine = ef.Engine(orun.Obs)
	defer func() {
		if cerr := orun.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "closlab:", cerr)
		}
	}()

	runners := closnet.Experiments()
	switch {
	case *list:
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return nil
	case *all:
		for _, r := range runners {
			if err := emit(orun.Context(), r, *csv, *js); err != nil {
				return err
			}
		}
		return nil
	case *exp != "":
		for _, r := range runners {
			if r.ID == *exp {
				return emit(orun.Context(), r, *csv, *js)
			}
		}
		return fmt.Errorf("unknown experiment %q (try -list)", *exp)
	default:
		fl.Usage()
		return fmt.Errorf("one of -list, -exp or -all is required")
	}
}

// emit runs one experiment, as an experiment span, and prints its table.
func emit(ctx context.Context, r closnet.ExperimentRunner, csv, js bool) error {
	sp := obs.Start(ctx, "experiment")
	sp.Str("id", r.ID).Str("title", r.Title)
	tab, err := r.Run()
	if err != nil {
		sp.Str("error", err.Error()).End()
		return fmt.Errorf("%s: %w", r.ID, err)
	}
	sp.End()
	switch {
	case js:
		out, err := tab.JSON()
		if err != nil {
			return err
		}
		fmt.Println(out)
	case csv:
		fmt.Print(tab.CSV())
	default:
		fmt.Println(tab.String())
	}
	return nil
}
