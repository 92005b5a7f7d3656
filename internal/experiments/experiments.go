package experiments

import (
	"context"
	"fmt"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/doom"
	"closnet/internal/engine"
	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/search"
)

// Engine is the compute engine behind every routing-space search and
// instrumented subsystem the experiments touch (searches, Doom-Switch,
// the dynamic simulator): one object carries the worker count and the
// observability sink that each experiment used to assemble by hand.
// cmd/closlab sets it from the shared engine flags; nil (the default)
// falls back to a zero-option engine (all-cores search, no
// instrumentation), so tests and example programs need no setup.
var Engine *engine.Engine

// defaultEngine backs the nil-Engine fallback.
var defaultEngine = engine.New(engine.Options{})

func eng() *engine.Engine {
	if Engine != nil {
		return Engine
	}
	return defaultEngine
}

// searchOpts returns the engine's exhaustive-search options — the one
// spelling of workers/observability every experiment shares.
func searchOpts() search.Options {
	return eng().SearchOptions(context.Background())
}

// obsSink returns the engine's observability bundle for the
// instrumented non-search subsystems (Doom-Switch, dynsim).
func obsSink() *obs.Obs {
	return eng().Obs()
}

// RunF1 regenerates Figure 1 / Example 2.3: the max-min fair allocations
// of the six-flow collection in MS_2 and in C_2 under the paper's two
// routings, plus the exhaustively computed lex-max-min fair allocation.
func RunF1() (*Table, error) {
	in, err := adversary.Example23()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F1",
		Title:   "Example 2.3 (Figure 1): max-min fair allocations in MS_2 vs C_2",
		Columns: []string{"allocation", "sorted rate vector", "throughput", "vs macro"},
	}

	macro, err := core.MacroMaxMinFair(in.Macro, in.MacroFlows)
	if err != nil {
		return nil, err
	}
	addAlloc := func(name string, a core.Allocation) {
		cmp := "="
		switch rational.LexCompareSorted(a, macro) {
		case -1:
			cmp = "lex-below"
		case 1:
			cmp = "lex-above"
		}
		t.AddRow(name, a.SortedCopy().String(), rational.String(core.Throughput(a)), cmp)
	}
	addAlloc("macro-switch", macro)

	routingA := in.Witness
	aA, err := core.ClosMaxMinFair(in.Clos, in.Flows, routingA)
	if err != nil {
		return nil, err
	}
	addAlloc("C_2 routing A ((s1.2,t2.1) via M1)", aA)

	routingB := core.MiddleAssignment{2, 2, 2, 1, 2, 1}
	aB, err := core.ClosMaxMinFair(in.Clos, in.Flows, routingB)
	if err != nil {
		return nil, err
	}
	addAlloc("C_2 routing B ((s1.2,t2.1) via M2)", aB)

	opt, err := search.LexMaxMin(in.Clos, in.Flows, searchOpts())
	if err != nil {
		return nil, err
	}
	addAlloc("C_2 lex-max-min (exhaustive)", opt.Allocation)
	t.AddNote("paper: macro sorted vector [1/3,1/3,1/3,2/3,2/3,1]; routing A [1/3,1/3,1/3,2/3,2/3,2/3]; routing B [1/3,1/3,1/3,1/3,2/3,1]; macro ≻ A ≻ B")
	t.AddNote("exhaustive search over %d canonical routings confirms routing A is lex-max-min", opt.States)
	return t, nil
}

// RunF2 regenerates Figure 2 / Example 3.3: in MS_1, the maximum
// throughput allocation reaches 2 while the max-min fair allocation
// reaches only 3/2.
func RunF2() (*Table, error) {
	in, err := adversary.Theorem34(1, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F2",
		Title:   "Example 3.3 (Figure 2): admission control vs congestion control in MS_1",
		Columns: []string{"allocation", "rates (type-1, type-1, type-2)", "throughput"},
	}
	tmt, m, err := maxThroughputMacro(in.MacroFlows)
	if err != nil {
		return nil, err
	}
	// Lemma 3.2 allocation: rate 1 on matched flows, 0 elsewhere.
	mt := rational.NewVec(len(in.Flows))
	for _, fi := range m {
		mt[fi] = rational.One()
	}
	t.AddRow("maximum throughput (Lemma 3.2)", mt.String(), rational.String(tmt))

	mmf, err := core.MacroMaxMinFair(in.Macro, in.MacroFlows)
	if err != nil {
		return nil, err
	}
	t.AddRow("max-min fair", mmf.String(), rational.String(core.Throughput(mmf)))
	t.AddNote("paper: T^MT = 2, T^MmF = 3/2 — a 1/4 of the maximum throughput is lost to fairness")
	return t, nil
}

// RunT1 regenerates the Theorem 3.4 sweep: the price of fairness
// T^MmF / T^MT on the adversarial family, which approaches the tight
// bound 1/2 as k grows, for several macro-switch sizes.
func RunT1(ns, ks []int) (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "Theorem 3.4: price of fairness T^MmF/T^MT on the adversarial family",
		Columns: []string{"n", "k", "T^MmF", "T^MT", "ratio", "theory (k+2)/(2k+2)", "≥ 1/2"},
	}
	half := rational.R(1, 2)
	for _, n := range ns {
		for _, k := range ks {
			in, err := adversary.Theorem34(n, k)
			if err != nil {
				return nil, err
			}
			mmf, err := core.MacroMaxMinFair(in.Macro, in.MacroFlows)
			if err != nil {
				return nil, err
			}
			tmmf := core.Throughput(mmf)
			tmt, _, err := maxThroughputMacro(in.MacroFlows)
			if err != nil {
				return nil, err
			}
			r := rational.Div(tmmf, tmt)
			theory := rational.R(int64(k+2), int64(2*k+2))
			row := []interface{}{
				n, k,
				rational.String(tmmf), rational.String(tmt),
				ratio(tmmf, tmt),
				rational.String(theory),
				yesNo(r.Cmp(half) >= 0),
			}
			if r.Cmp(theory) != 0 {
				row = append(row, "MEASURED != THEORY")
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("paper: T^MmF = 1 + 1/(k+1), T^MT = 2; the ratio tends to the tight bound 1/2 as k → ∞")
	return t, nil
}

// RunF3 regenerates Figure 3 / Example 4.1 / Theorem 4.2: the
// macro-switch max-min rates of the adversarial family admit no feasible
// routing in C_n, while dropping the type-3 flow restores routability.
func RunF3(ns []int) (*Table, error) {
	t := &Table{
		ID:      "F3",
		Title:   "Theorem 4.2 (Figure 3): replicating macro-switch max-min rates in C_n",
		Columns: []string{"n", "flows", "macro rates replicable", "replicable without type-3 flow"},
	}
	for _, n := range ns {
		in, err := adversary.Theorem42(n)
		if err != nil {
			return nil, err
		}
		_, full, err := search.FeasibleRouting(context.Background(), in.Clos, in.Flows, in.MacroRates, 0, searchOpts().Workers)
		if err != nil {
			return nil, err
		}
		t3 := in.FlowsOfType(adversary.Type3)[0]
		_, partial, err := search.FeasibleRouting(context.Background(), in.Clos, in.Flows[:t3], in.MacroRates[:t3], 0, searchOpts().Workers)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, len(in.Flows), yesNo(full), yesNo(partial))
	}
	t.AddNote("paper: no feasible routing exists (exhaustive refutation with capacity pruning), so a^MmF↑ ≻ a^L-MmF↑")
	return t, nil
}

// RunT2 regenerates the Theorem 4.3 sweep: the starvation of the type-3
// flow, whose lex-max-min rate in C_n is a 1/n fraction of its
// macro-switch rate. Every witness routing is additionally certified
// locally lex-optimal against all single-flow deviations.
func RunT2(ns []int) (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "Theorem 4.3: lex-max-min starvation of the type-3 flow",
		Columns: []string{"n", "flows", "type-3 macro rate", "type-3 lex-max-min rate", "ratio", "witness verified", "local-opt certified"},
	}
	for _, n := range ns {
		in, err := adversary.Theorem43(n)
		if err != nil {
			return nil, err
		}
		a, err := core.ClosMaxMinFair(in.Clos, in.Flows, in.Witness)
		if err != nil {
			return nil, err
		}
		verified := a.Equal(in.WitnessRates)
		t3 := in.FlowsOfType(adversary.Type3)[0]
		certified, err := search.IsLocalLexOptimal(in.Clos, in.Flows, in.Witness)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			n, len(in.Flows),
			rational.String(in.MacroRates[t3]),
			rational.String(a[t3]),
			ratio(a[t3], in.MacroRates[t3]),
			yesNo(verified),
			yesNo(certified),
		)
	}
	t.AddNote("paper: a^L-MmF(type-3) = (1/n)·a^MmF(type-3) — starvation grows with the network size")
	return t, nil
}

// RunF4 regenerates Figure 4 / Example 5.3: the Doom-Switch algorithm on
// the nine-flow C_7 instance, raising throughput from 9/2 to 5 by
// crushing the type-2 flows.
func RunF4() (*Table, error) {
	in, err := adversary.Example53()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F4",
		Title:   "Example 5.3 (Figure 4): Doom-Switch on C_7 (6 type-1 + 3 type-2 flows)",
		Columns: []string{"allocation", "type-1 rate", "type-2 rate", "throughput"},
	}
	typeRate := func(a core.Allocation, ft adversary.FlowType) string {
		idx := in.FlowsOfType(ft)
		first := a[idx[0]]
		for _, fi := range idx[1:] {
			if a[fi].Cmp(first) != 0 {
				return "mixed"
			}
		}
		return rational.String(first)
	}
	macro, err := core.MacroMaxMinFair(in.Macro, in.MacroFlows)
	if err != nil {
		return nil, err
	}
	t.AddRow("macro-switch max-min fair", typeRate(macro, adversary.Type1), typeRate(macro, adversary.Type2a), rational.String(core.Throughput(macro)))

	res, err := doom.RouteWithObs(in.Clos, in.Flows, doom.LeastLoaded(), obsSink())
	if err != nil {
		return nil, err
	}
	a, err := core.ClosMaxMinFair(in.Clos, in.Flows, res.Assignment)
	if err != nil {
		return nil, err
	}
	t.AddRow("C_7 Doom-Switch max-min fair", typeRate(a, adversary.Type1), typeRate(a, adversary.Type2a), rational.String(core.Throughput(a)))
	t.AddNote("paper: all rates 1/2 and throughput 9/2 in the macro-switch; type-1 → 2/3, type-2 → 1/3, throughput 5 under Doom-Switch")
	t.AddNote("Doom-Switch matched %d flows; doomed middle switch: M%d", res.MatchedCount(), res.DoomMiddle)
	return t, nil
}

// RunT3 regenerates the Theorem 5.4 sweep: the throughput gain of the
// Doom-Switch routing over the macro-switch max-min fair allocation,
// which approaches 2·(1 − 1/(n−1)) and never exceeds 2.
func RunT3(ns, ks []int) (*Table, error) {
	t := &Table{
		ID:      "T3",
		Title:   "Theorem 5.4: Doom-Switch throughput gain T^T-MmF/T^MmF on the adversarial family",
		Columns: []string{"n", "k", "T^MmF", "T(doom)", "gain", "theory 2(1-eps)", "≤ 2"},
	}
	two := rational.Int(2)
	for _, n := range ns {
		for _, k := range ks {
			in, err := adversary.Theorem54(n, k)
			if err != nil {
				return nil, err
			}
			macro, err := core.MacroMaxMinFair(in.Macro, in.MacroFlows)
			if err != nil {
				return nil, err
			}
			tm := core.Throughput(macro)
			res, err := doom.RouteWithObs(in.Clos, in.Flows, doom.LeastLoaded(), obsSink())
			if err != nil {
				return nil, err
			}
			a, err := core.ClosMaxMinFair(in.Clos, in.Flows, res.Assignment)
			if err != nil {
				return nil, err
			}
			td := core.Throughput(a)
			gain := rational.Div(td, tm)
			// epsilon = (k+n) / ((n-1)(k+2)); theory lower bound 2(1-eps).
			eps := rational.R(int64(k+n), int64((n-1)*(k+2)))
			theory := rational.Mul(two, rational.Sub(rational.One(), eps))
			t.AddRow(
				n, k,
				rational.String(tm), rational.String(td),
				ratio(td, tm),
				fmt.Sprintf("%.4f", rational.Float(theory)),
				yesNo(gain.Cmp(two) <= 0),
			)
		}
	}
	t.AddNote("paper: gain ≥ 2(1-eps) with eps → 1/(n-1) as k → ∞, and gain ≤ 2 always")
	return t, nil
}
