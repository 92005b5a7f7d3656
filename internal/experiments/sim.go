package experiments

import (
	"fmt"
	"math/rand"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/routing"
	"closnet/internal/search"
	"closnet/internal/stats"
	"closnet/internal/topology"
	"closnet/internal/workload"
)

// SimConfig parameterizes the stochastic simulation (experiment S1).
type SimConfig struct {
	// Sizes lists the Clos sizes n to simulate.
	Sizes []int
	// FlowsPerServerPair scales the uniform/hotspot/skewed workloads:
	// number of flows = FlowsPerServerPair × 2n².
	FlowsPerServerPair int
	// Trials is the number of random instances per (size, workload).
	Trials int
	// Seed makes the simulation reproducible.
	Seed int64
}

// DefaultSimConfig returns the configuration used by the registry and
// the benchmark harness.
func DefaultSimConfig() SimConfig {
	return SimConfig{Sizes: []int{4, 8}, FlowsPerServerPair: 2, Trials: 5, Seed: 1}
}

// RunS1 runs the stochastic routing evaluation of §6's extended-version
// simulation: for every (size, workload, algorithm), flows are offered
// with their macro-switch rates, routed, and re-allocated by max-min
// fair congestion control; the table reports how closely the network
// rates track the macro rates.
func RunS1(cfg SimConfig) (*Table, error) {
	t := &Table{
		ID:    "S1",
		Title: "§6 simulation: per-flow network/macro rate ratios under baseline routing algorithms",
		Columns: []string{
			"n", "workload", "algorithm",
			"mean ratio", "p10 ratio", "min ratio", "throughput ratio",
		},
	}
	algs, gens := routing.All(), workload.Generators()
	runs := make([]simStats, len(cfg.Sizes)*len(gens)*len(algs))
	if err := forEachSimRun(cfg, func(r simRun) {
		runs[(r.size*len(gens)+r.workload)*len(algs)+r.alg].observe(r.clos, r.macro)
	}); err != nil {
		return nil, err
	}
	for si, n := range cfg.Sizes {
		for wi, wg := range gens {
			for ai, alg := range algs {
				s := &runs[(si*len(gens)+wi)*len(algs)+ai]
				sum := s.summary()
				t.AddRow(n, wg.Name, alg.Name,
					fmt.Sprintf("%.4f", sum.Mean),
					fmt.Sprintf("%.4f", sum.P10),
					fmt.Sprintf("%.4f", sum.Min),
					fmt.Sprintf("%.4f", s.throughputRatio()),
				)
			}
		}
	}
	t.AddNote("ratios are per-flow networkRate/macroRate; 1.0 means the macro-switch abstraction holds for that flow")
	t.AddNote("expected shape: congestion-aware algorithms (greedy, local-search, first-fit) stay near 1 on average, least so under permutation traffic; ECMP's minimum ratio degrades")
	return t, nil
}

// simRun is one routing of one drawn instance of S1 and S2: the indices
// of its size, workload and algorithm, and the exact max-min fair rates
// of the routed Clos flows and of the same flows in the macro-switch.
type simRun struct {
	size, workload, alg int
	clos, macro         core.Allocation
}

// forEachSimRun draws cfg's instances from one seeded stream — per
// size, workload and trial, in that order — and routes each with every
// baseline algorithm, which takes the macro-switch rates as float64
// demands. visit gets every routing's exact rates.
func forEachSimRun(cfg SimConfig, visit func(simRun)) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	algs := routing.All()
	for si, n := range cfg.Sizes {
		c, err := topology.NewClos(n)
		if err != nil {
			return err
		}
		ms, err := topology.NewMacroSwitch(n)
		if err != nil {
			return err
		}
		numFlows := cfg.FlowsPerServerPair * 2 * n * n
		for wi, wg := range workload.Generators() {
			for trial := 0; trial < cfg.Trials; trial++ {
				pair, err := wg.Draw(rng, c, ms, numFlows)
				if err != nil {
					return err
				}
				macro, err := core.MacroMaxMinFair(ms, pair.Macro)
				if err != nil {
					return err
				}
				demands := macro.Floats()
				for ai, alg := range algs {
					ma, err := alg.Route(c, pair.Clos, demands, rng)
					if err != nil {
						return err
					}
					a, err := core.ClosMaxMinFair(c, pair.Clos, ma)
					if err != nil {
						return err
					}
					visit(simRun{size: si, workload: wi, alg: ai, clos: a, macro: macro})
				}
			}
		}
	}
	return nil
}

// simStats accumulates per-flow ratios and throughput totals.
type simStats struct {
	ratios        []float64
	closT, macroT float64
}

// observe adds one routing's per-flow network/macro ratios and
// throughputs. The rates are exact and become float64 only here, so
// two equal rates have ratio exactly 1.
func (s *simStats) observe(closRates, macroRates core.Allocation) {
	for i := range closRates {
		c, m := rational.Float(closRates[i]), rational.Float(macroRates[i])
		s.closT += c
		s.macroT += m
		if m > 0 {
			s.ratios = append(s.ratios, c/m)
		}
	}
}

func (s *simStats) summary() stats.Summary {
	return stats.Summarize(s.ratios)
}

func (s *simStats) throughputRatio() float64 {
	if s.macroT == 0 {
		return 0
	}
	return s.closT / s.macroT
}

// RunS1Adversarial runs the worst-case counterpart: the baseline
// algorithms on the Theorem 4.3 starvation family, where §6 notes that
// the Clos rates of some flows can be arbitrarily smaller than their
// macro rates. The table reports the minimum per-flow network/macro
// ratio per algorithm; ECMP's collapses toward 1/n, while the
// congestion-aware heuristics hold up better on this particular family
// (their own tailored worst cases exist per §6 but are not published).
func RunS1Adversarial(ns []int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "S1b",
		Title:   "§6 worst case: baseline algorithms on the Theorem 4.3 family",
		Columns: []string{"n", "algorithm", "min flow ratio", "1/n"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range ns {
		in, err := adversary.Theorem43(n)
		if err != nil {
			return nil, err
		}
		demands := make([]float64, len(in.Flows))
		for fi, r := range in.MacroRates {
			demands[fi] = rational.Float(r)
		}
		for _, alg := range routing.All() {
			ma, err := alg.Route(in.Clos, in.Flows, demands, rng)
			if err != nil {
				return nil, err
			}
			a, err := core.ClosMaxMinFair(in.Clos, in.Flows, ma)
			if err != nil {
				return nil, err
			}
			t.AddRow(n, alg.Name,
				fmt.Sprintf("%.4f", rational.Float(search.MinRatio(a, in.MacroRates))),
				fmt.Sprintf("%.4f", 1/float64(n)),
			)
		}
	}
	t.AddNote("ECMP's minimum ratio collapses toward 1/n on this family; congestion-aware heuristics degrade more slowly here but §6 notes tailored worst cases exist for them too")
	t.AddNote("the lex-max-min routing itself (experiment T2) pins the type-3 flow at exactly 1/n — fairness-optimal routing is the worst case for that flow")
	return t, nil
}

// RunS2 renders the CDF counterpart of S1: for each algorithm, the
// fraction of flows whose network/macro rate ratio falls at or below
// fixed thresholds, aggregated over all workloads — the tabular form of
// the extended version's CDF figures.
func RunS2(cfg SimConfig) (*Table, error) {
	thresholds := []float64{0.25, 0.50, 0.75, 0.90, 0.99, 1.0}
	t := &Table{
		ID:    "S2",
		Title: "§6 simulation: CDF of per-flow network/macro rate ratios (all workloads pooled)",
		Columns: []string{
			"n", "algorithm",
			"≤0.25", "≤0.50", "≤0.75", "≤0.90", "≤0.99", "≤1.00",
		},
	}
	algs := routing.All()
	pooled := make([]simStats, len(cfg.Sizes)*len(algs))
	if err := forEachSimRun(cfg, func(r simRun) {
		pooled[r.size*len(algs)+r.alg].observe(r.clos, r.macro)
	}); err != nil {
		return nil, err
	}
	for si, n := range cfg.Sizes {
		for ai, alg := range algs {
			fractions := stats.FractionAtMost(pooled[si*len(algs)+ai].ratios, thresholds)
			row := []interface{}{n, alg.Name}
			for _, fr := range fractions {
				row = append(row, stats.FormatFraction(fr))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("a column value is the fraction of flows whose ratio is at most the threshold; small values left of 1.00 mean the macro-switch abstraction mostly holds")
	t.AddNote("ECMP accumulates mass at low ratios; the congestion-aware algorithms concentrate almost all mass at 1.00")
	t.AddNote("mass above 1.00 is genuine, since both rates are exact and equal rates read exactly 1.00: a flow can exceed its macro rate when a competitor is throttled inside the fabric and frees a shared server link")
	return t, nil
}
