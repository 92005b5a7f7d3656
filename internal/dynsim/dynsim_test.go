package dynsim

import (
	"math"
	"math/rand"
	"testing"

	"closnet/internal/obs"
	"closnet/internal/topology"
)

func baseConfig() Config {
	return Config{
		Clos:        topology.MustClos(2),
		Router:      NewECMPRouter(),
		Discipline:  FairSharing,
		ArrivalRate: 2.0,
		MeanSize:    0.5,
		NumFlows:    200,
		Seed:        1,
	}
}

func TestRunCompletesAllFlows(t *testing.T) {
	cfg := baseConfig()
	o := &obs.Obs{Reg: obs.NewRegistry()}
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FCTs) != cfg.NumFlows || len(res.Slowdowns) != cfg.NumFlows {
		t.Fatalf("lengths: %d FCTs, %d slowdowns", len(res.FCTs), len(res.Slowdowns))
	}
	for i, fct := range res.FCTs {
		if fct <= 0 || math.IsInf(fct, 0) || math.IsNaN(fct) {
			t.Fatalf("flow %d: bad FCT %v", i, fct)
		}
		// A flow cannot beat transmitting alone at link capacity.
		if res.Slowdowns[i] < 1-1e-6 {
			t.Fatalf("flow %d: slowdown %v below 1", i, res.Slowdowns[i])
		}
	}
	if res.Duration <= 0 {
		t.Error("non-positive duration")
	}
	if res.TotalBytes <= 0 {
		t.Error("non-positive total bytes")
	}
	// Every arrival and departure is a delta of the incremental
	// evaluator, which reuses recorded rounds.
	snap := o.Reg.Snapshot()
	if a, d := snap.Counters["dynsim.arrivals"], snap.Counters["dynsim.departures"]; a != int64(cfg.NumFlows) || d != a {
		t.Errorf("dynsim.arrivals = %d, dynsim.departures = %d, want %d each", a, d, cfg.NumFlows)
	}
	if got := snap.Counters["core.delta_fills"]; got <= 0 {
		t.Error("no incremental delta fills recorded under FairSharing")
	}
	if got := snap.Counters["core.delta_levels_skipped"]; got <= 0 {
		t.Error("incremental evaluator never reused a recorded round")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.FCTs {
		if a.FCTs[i] != b.FCTs[i] {
			t.Fatalf("flow %d: FCT %v vs %v with same seed", i, a.FCTs[i], b.FCTs[i])
		}
	}
}

// TestRouterDeterminism: same seed + config ⇒ identical Result for every
// router, each run on a fresh router (round-robin keeps state).
func TestRouterDeterminism(t *testing.T) {
	for _, newRouter := range []func() Router{NewECMPRouter, NewLeastLoadedRouter, NewRoundRobinRouter} {
		t.Run(newRouter().Name(), func(t *testing.T) {
			run := func() *Result {
				cfg := baseConfig()
				cfg.Clos = topology.MustClos(3)
				cfg.Router = newRouter()
				cfg.ArrivalRate = 8
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Duration != b.Duration {
				t.Fatalf("Duration %v vs %v with same seed", a.Duration, b.Duration)
			}
			for i := range a.FCTs {
				if a.FCTs[i] != b.FCTs[i] || a.Slowdowns[i] != b.Slowdowns[i] {
					t.Fatalf("flow %d: FCT %v vs %v, slowdown %v vs %v with same seed",
						i, a.FCTs[i], b.FCTs[i], a.Slowdowns[i], b.Slowdowns[i])
				}
			}
		})
	}
}

func TestRunConfigValidation(t *testing.T) {
	base := baseConfig()

	bad := base
	bad.Clos = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil Clos accepted")
	}
	bad = base
	bad.Router = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil Router accepted")
	}
	bad = base
	bad.Discipline = 0
	if _, err := Run(bad); err == nil {
		t.Error("unknown discipline accepted")
	}
	bad = base
	bad.ArrivalRate = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero arrival rate accepted")
	}
	bad = base
	bad.NumFlows = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero flows accepted")
	}
	bad = base
	bad.MeanSize = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative size accepted")
	}
}

func TestAllRouters(t *testing.T) {
	for _, router := range []Router{NewECMPRouter(), NewLeastLoadedRouter(), NewRoundRobinRouter()} {
		t.Run(router.Name(), func(t *testing.T) {
			cfg := baseConfig()
			cfg.Router = router
			cfg.NumFlows = 100
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.MeanFCT() <= 0 || res.MeanSlowdown() < 1-1e-6 {
				t.Errorf("suspicious metrics: meanFCT=%v meanSlowdown=%v", res.MeanFCT(), res.MeanSlowdown())
			}
		})
	}
}

func TestMatchingSchedulerDiscipline(t *testing.T) {
	cfg := baseConfig()
	cfg.Discipline = MatchingScheduler
	cfg.NumFlows = 150
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Slowdowns {
		if s < 1-1e-6 {
			t.Fatalf("flow %d: slowdown %v below 1 under the scheduler", i, s)
		}
	}
}

// TestLeastLoadedBeatsECMPUnderLoad: at high utilization, the
// congestion-aware router should deliver a lower mean FCT than random
// placement (the §6 stochastic story, now with dynamics).
func TestLeastLoadedBeatsECMPUnderLoad(t *testing.T) {
	run := func(r Router) float64 {
		cfg := baseConfig()
		cfg.Clos = topology.MustClos(3)
		cfg.Router = r
		cfg.ArrivalRate = 12
		cfg.MeanSize = 1.0
		cfg.NumFlows = 600
		cfg.Seed = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanFCT()
	}
	ecmp := run(NewECMPRouter())
	ll := run(NewLeastLoadedRouter())
	if ll >= ecmp {
		t.Errorf("least-loaded mean FCT %v not below ECMP %v", ll, ecmp)
	}
}

// TestSchedulerBeatsFairSharingUnderOverload mirrors the static E1
// finding dynamically: when many flows contend for few server pairs,
// serving matchings beats fair sharing on mean FCT.
func TestSchedulerBeatsFairSharingUnderOverload(t *testing.T) {
	run := func(d Discipline) float64 {
		cfg := baseConfig()
		cfg.Clos = topology.MustClos(1) // 2 servers per side: heavy contention
		cfg.Discipline = d
		cfg.ArrivalRate = 4
		cfg.MeanSize = 1
		cfg.NumFlows = 300
		cfg.Seed = 9
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanFCT()
	}
	fair := run(FairSharing)
	sched := run(MatchingScheduler)
	if sched >= fair {
		t.Errorf("scheduler mean FCT %v not below fair sharing %v", sched, fair)
	}
}

func TestResultPercentiles(t *testing.T) {
	// Interpolated quantiles: p99 of {1..5} sits between the 4th and 5th
	// order statistics at 4 + 0.96·1.
	r := &Result{Slowdowns: []float64{5, 1, 3, 2, 4}}
	if got := r.P99Slowdown(); math.Abs(got-4.96) > 1e-12 {
		t.Errorf("P99 = %v, want 4.96", got)
	}
	empty := &Result{}
	if empty.MeanFCT() != 0 || empty.P99Slowdown() != 0 || empty.MeanSlowdown() != 0 {
		t.Error("empty result metrics should be zero")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	xs := []float64{7, 3, 5, 1}
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"p=1.0 is the max", xs, 1.0, 7},
		{"p=0 is the min", xs, 0, 1},
		{"p=0.5 interpolates", xs, 0.5, 4}, // (3+5)/2
		{"n=1 any p", []float64{2.5}, 0.99, 2.5},
		{"n=1 p=1.0", []float64{2.5}, 1.0, 2.5},
		{"n=1 p=0", []float64{2.5}, 0, 2.5},
		{"empty", nil, 0.5, 0},
		{"p=2/3 of {1,2,3,4}", []float64{4, 3, 2, 1}, 2.0 / 3.0, 3},
	}
	for _, tc := range cases {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.p, got, tc.want)
		}
	}
	// The input must not be mutated (percentile sorts a copy).
	if xs[0] != 7 || xs[3] != 1 {
		t.Errorf("percentile mutated its input: %v", xs)
	}
}

func TestDisciplineString(t *testing.T) {
	if FairSharing.String() == "" || MatchingScheduler.String() == "" {
		t.Error("unnamed discipline")
	}
	if Discipline(42).String() == "" {
		t.Error("unknown discipline unformatted")
	}
}

func TestParetoSizesRun(t *testing.T) {
	cfg := baseConfig()
	cfg.Sizes = SizeParetoBounded
	cfg.NumFlows = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Slowdowns {
		if s < 1-1e-6 {
			t.Fatalf("flow %d: slowdown %v below 1", i, s)
		}
	}
}

func TestSizeDistSamplers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range []SizeDist{SizeExponential, SizeParetoBounded, 0} {
		draw, err := d.sampler(2.0, rng)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		sum, n := 0.0, 20000
		for i := 0; i < n; i++ {
			s := draw()
			if s <= 0 {
				t.Fatalf("%v: non-positive size %v", d, s)
			}
			sum += s
		}
		mean := sum / float64(n)
		if mean < 1.5 || mean > 2.5 {
			t.Errorf("%v: empirical mean %v far from configured 2.0", d, mean)
		}
	}
	if _, err := SizeDist(9).sampler(1, rng); err == nil {
		t.Error("unknown distribution accepted")
	}
	if SizeExponential.String() == "" || SizeParetoBounded.String() == "" || SizeDist(9).String() == "" {
		t.Error("unnamed size distribution")
	}
}
