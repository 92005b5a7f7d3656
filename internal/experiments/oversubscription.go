package experiments

import (
	"fmt"
	"math/rand"

	"closnet/internal/core"
	"closnet/internal/routing"
	"closnet/internal/stats"
	"closnet/internal/topology"
	"closnet/internal/workload"
)

// RunO1 measures how oversubscription breaks the macro-switch
// abstraction. The paper assumes full bisection bandwidth (as many
// middle switches as servers per ToR, §2.1); real deployments often
// oversubscribe the fabric (servers > middles). Sweeping servers per ToR
// against a fixed middle count quantifies the abstraction's fidelity on
// both sides of the full-bisection boundary: at ratio ≤ 1 the gaps are
// exactly the paper's unsplittability/fairness gaps, beyond it a
// structural capacity gap is added on top.
func RunO1(tors, middles int, serverCounts []int, trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "O1",
		Title: "Oversubscription sweep: macro-switch fidelity vs servers/middles ratio (greedy routing, uniform workload)",
		Columns: []string{
			"servers/ToR", "oversubscription", "mean ratio", "p10 ratio", "min ratio", "throughput ratio",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, servers := range serverCounts {
		c, err := topology.NewGeneralClos(tors, servers, middles)
		if err != nil {
			return nil, err
		}
		ms, err := topology.NewGeneralMacroSwitch(tors, servers)
		if err != nil {
			return nil, err
		}
		greedy := routing.NewGreedy()
		var pooled simStats
		numFlows := 2 * tors * servers
		for trial := 0; trial < trials; trial++ {
			pair, err := workload.Uniform(rng, c, ms, numFlows)
			if err != nil {
				return nil, err
			}
			macro, err := core.MacroMaxMinFair(ms, pair.Macro)
			if err != nil {
				return nil, err
			}
			ma, err := greedy.Route(c, pair.Clos, macro.Floats(), nil)
			if err != nil {
				return nil, err
			}
			a, err := core.ClosMaxMinFair(c, pair.Clos, ma)
			if err != nil {
				return nil, err
			}
			pooled.observe(a, macro)
		}
		sum := stats.Summarize(pooled.ratios)
		t.AddRow(
			servers,
			fmt.Sprintf("%d:%d", servers, middles),
			fmt.Sprintf("%.4f", sum.Mean),
			fmt.Sprintf("%.4f", sum.P10),
			fmt.Sprintf("%.4f", sum.Min),
			fmt.Sprintf("%.4f", pooled.throughputRatio()),
		)
	}
	t.AddNote("oversubscription s:m compares per-ToR server capacity (s) against fabric capacity (m); the paper's model is the full-bisection case s:m = 1")
	t.AddNote("beyond full bisection the fabric physically cannot carry the macro rates, so ratios fall structurally, on top of the paper's unsplittability gaps")
	return t, nil
}
