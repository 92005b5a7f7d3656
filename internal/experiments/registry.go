package experiments

import "fmt"

// Runner is a named experiment with default parameters.
type Runner struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment with its default parameters, in the
// presentation order of DESIGN.md's per-experiment index.
func All() []Runner {
	return []Runner{
		{"F1", "Example 2.3 allocations (Figure 1)", RunF1},
		{"F2", "Example 3.3 allocations (Figure 2)", RunF2},
		{"T1", "Theorem 3.4 price-of-fairness sweep", func() (*Table, error) {
			return RunT1([]int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16, 32, 64})
		}},
		{"F3", "Theorem 4.2 replication infeasibility (Figure 3)", func() (*Table, error) {
			return RunF3([]int{3, 4, 5})
		}},
		{"T2", "Theorem 4.3 starvation sweep", func() (*Table, error) {
			return RunT2([]int{3, 4, 5, 6, 7, 8})
		}},
		{"F4", "Example 5.3 Doom-Switch (Figure 4)", RunF4},
		{"T3", "Theorem 5.4 throughput-gain sweep", func() (*Table, error) {
			return RunT3([]int{3, 5, 7, 9, 11, 15}, []int{1, 4, 16, 64})
		}},
		{"S1", "Stochastic routing simulation (§6)", func() (*Table, error) {
			return RunS1(DefaultSimConfig())
		}},
		{"S1b", "Worst-case routing on the starvation family (§6)", func() (*Table, error) {
			return RunS1Adversarial([]int{3, 4, 5, 6}, 1)
		}},
		{"S2", "Per-flow ratio CDFs under baseline routing (§6)", func() (*Table, error) {
			return RunS2(SimConfig{Sizes: []int{4}, FlowsPerServerPair: 2, Trials: 5, Seed: 1})
		}},
		{"S3", "Stochastic vs worst-case routing across topology families (§6)", func() (*Table, error) {
			return RunS3(nil, 5, 5, 1)
		}},
		{"P1", "Splittable demand-satisfaction control (§1)", RunP1},
		{"E1", "Scheduling vs fair sharing, average FCT (§7 R1)", func() (*Table, error) {
			return RunE1([]int{1, 2, 4, 8, 16, 32, 64})
		}},
		{"R1", "Relative-max-min vs lex-max-min fairness (§7 R2)", RunR1},
		{"M1", "Rearrangeability: middles needed for macro rates (§6)", func() (*Table, error) {
			return RunM1([]int{3, 4}, 5, 1)
		}},
		{"D1", "Dynamic FCT simulation: congestion control vs scheduling", func() (*Table, error) {
			return RunD1(DefaultDynConfig())
		}},
		{"O1", "Oversubscription sweep: fidelity vs servers/middles", func() (*Table, error) {
			return RunO1(6, 3, []int{1, 2, 3, 4, 5, 6}, 5, 1)
		}},
		{"A1", "Doom-Switch approximation quality vs exhaustive optimum", func() (*Table, error) {
			return RunA1([]int{2, 3}, 8, 10, 1)
		}},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
