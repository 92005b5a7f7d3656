package experiments

import (
	"context"
	"math/rand"
	"strconv"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/schedule"
	"closnet/internal/search"
	"closnet/internal/topology"
	"closnet/internal/workload"
)

// RunE1 quantifies the §7 R1 discussion: scheduling (delaying flows so
// that the rest transmit at link capacity, via repeated maximum
// matchings) versus max-min fair sharing, measured as average flow
// completion time on the Theorem 3.4 family with unit-size flows.
func RunE1(ks []int) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "§7 R1: average FCT — max-min fair sharing vs matching scheduler (Theorem 3.4 family, unit flows)",
		Columns: []string{"k", "flows", "avg FCT fair sharing", "avg FCT scheduled", "speedup"},
	}
	for _, k := range ks {
		in, err := adversary.Theorem34(1, k)
		if err != nil {
			return nil, err
		}
		r, err := core.MacroRouting(in.Macro, in.MacroFlows)
		if err != nil {
			return nil, err
		}
		sizes := schedule.UnitSizes(len(in.MacroFlows))
		fair, err := schedule.FairSharing(in.Macro.Network(), in.MacroFlows, r, sizes)
		if err != nil {
			return nil, err
		}
		sched, err := schedule.MatchingRounds(in.MacroFlows, sizes)
		if err != nil {
			return nil, err
		}
		fAvg := schedule.AverageFCT(fair)
		sAvg := schedule.AverageFCT(sched)
		t.AddRow(k, len(in.MacroFlows),
			rational.String(fAvg), rational.String(sAvg), ratio(fAvg, sAvg))
	}
	t.AddNote("under fair sharing every unit flow completes at t = k+1; the scheduler finishes the two high-value flows at t = 1 and serializes the parasitic flows")
	t.AddNote("the speedup approaches 2x as k grows, matching R1's suggestion that scheduling can recover the fairness-forfeited throughput over time")
	return t, nil
}

// RunR1 quantifies the §7 R2 discussion: relative-max-min fairness
// (maximize the minimum network/macro rate ratio) versus lex-max-min
// fairness, on the instances where lex-max-min fairness starves flows.
func RunR1() (*Table, error) {
	t := &Table{
		ID:      "R1",
		Title:   "§7 R2: relative-max-min vs lex-max-min fairness (min per-flow network/macro ratio)",
		Columns: []string{"instance", "lex-max-min min ratio", "relative-max-min min ratio", "method"},
	}

	// Example 2.3: both objectives exhaustively optimal.
	ex, err := adversary.Example23()
	if err != nil {
		return nil, err
	}
	lexOpt, err := search.LexMaxMin(ex.Clos, ex.Flows, searchOpts())
	if err != nil {
		return nil, err
	}
	relOpt, err := search.RelativeMaxMin(ex.Clos, ex.Flows, ex.MacroRates, searchOpts())
	if err != nil {
		return nil, err
	}
	t.AddRow("example-2.3",
		rational.String(search.MinRatio(lexOpt.Allocation, ex.MacroRates)),
		rational.String(relOpt.MinRatio),
		"exhaustive")

	// Starvation family: the lex witness is known (ratio 1/n); relative
	// fairness is optimized by hill climbing from the witness.
	for _, n := range []int{3, 4} {
		in, err := adversary.Theorem43(n)
		if err != nil {
			return nil, err
		}
		wa, err := core.ClosMaxMinFair(in.Clos, in.Flows, in.Witness)
		if err != nil {
			return nil, err
		}
		climbed, err := search.HillClimbRelative(in.Clos, in.Flows, in.MacroRates, in.Witness, 100)
		if err != nil {
			return nil, err
		}
		t.AddRow(in.Name,
			rational.String(search.MinRatio(wa, in.MacroRates)),
			rational.String(climbed.MinRatio),
			"hill climb from lex witness")
	}
	t.AddNote("relative-max-min fairness protects the worst-off flow strictly better than lex-max-min fairness on every instance above")
	t.AddNote("whether a constant-factor guarantee is always achievable is the paper's open question; these are instance-level data points")
	return t, nil
}

// RunM1 probes the multirate-rearrangeability question of §6 for
// concrete instances: the minimum number of middle switches needed to
// route the macro-switch max-min rates, versus the paper-square n and
// the classic conjecture bound 2·serversPerToR − 1.
func RunM1(ns []int, trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "M1",
		Title:   "§6 rearrangeability: middle switches needed to route macro-switch max-min rates",
		Columns: []string{"instance", "square n", "min middles", "conjecture bound 2n-1"},
	}
	for _, n := range ns {
		in, err := adversary.Theorem42(n)
		if err != nil {
			return nil, err
		}
		bound := 2*in.Clos.ServersPerToR() - 1
		m, ok, err := search.MinMiddlesToRoute(context.Background(), in.Clos, in.Flows, in.MacroRates, bound, 0, searchOpts().Workers)
		if err != nil {
			return nil, err
		}
		cell := "> bound"
		if ok {
			cell = strconv.Itoa(m)
		}
		t.AddRow(in.Name, n, cell, bound)
	}

	// Random workloads with their macro max-min rates as demands.
	rng := rand.New(rand.NewSource(seed))
	n := 3
	c, err := topology.NewClos(n)
	if err != nil {
		return nil, err
	}
	ms, err := topology.NewMacroSwitch(n)
	if err != nil {
		return nil, err
	}
	worst := 0
	for trial := 0; trial < trials; trial++ {
		pair, err := workload.Uniform(rng, c, ms, 3*n*n)
		if err != nil {
			return nil, err
		}
		demands, err := core.MacroMaxMinFair(ms, pair.Macro)
		if err != nil {
			return nil, err
		}
		m, ok, err := search.MinMiddlesToRoute(context.Background(), c, pair.Clos, demands, 2*n-1, 0, searchOpts().Workers)
		if err != nil {
			return nil, err
		}
		if !ok {
			m = 2 * n // sentinel: above the conjecture bound
		}
		if m > worst {
			worst = m
		}
	}
	t.AddRow("uniform-random worst of "+strconv.Itoa(trials), n, strconv.Itoa(worst), 2*n-1)
	t.AddNote("the adversarial Theorem 4.2 demands need more than n middles (that is the theorem) but stay within the 2n-1 conjecture bound")
	return t, nil
}
