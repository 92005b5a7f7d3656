// Package dynsim is a flow-level discrete-event simulator for Clos
// networks: flows arrive over time (Poisson), are routed at arrival by an
// incremental routing policy, receive service according to a service
// discipline — max-min fair sharing (congestion control, the paper's
// model) or a maximum-matching scheduler (the §7 R1 alternative that
// emulates admission control over time) — and depart when their size has
// been transferred.
//
// The simulator measures flow completion times (FCT) and slowdowns
// (FCT divided by the flow's ideal transfer time at link capacity),
// connecting the paper's static impossibility results to the
// flow-completion-time framing its conclusions discuss.
//
// Rates are reported as float64, but under FairSharing they are read
// off a core.IncrementalEvaluator: every arrival and departure is a
// single-flow delta against the exact max-min state instead of a
// from-scratch water-fill, so event cost scales with how much of the
// bottleneck structure the delta actually disturbs.
package dynsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"closnet/internal/core"
	"closnet/internal/obs"
	"closnet/internal/topology"
)

// Router chooses a middle switch for a newly arrived flow given the
// current fabric load (total rate per fabric link).
type Router interface {
	// Name identifies the router in result tables.
	Name() string
	// Place returns the 1-based middle-switch index for the flow.
	Place(s *State, f core.Flow) (int, error)
}

// Discipline decides the instantaneous service rates of the active
// flows.
type Discipline int

// Service disciplines.
const (
	// FairSharing gives every active flow its max-min fair rate for the
	// current routing — the paper's congestion-control model.
	FairSharing Discipline = iota + 1
	// MatchingScheduler serves a shortest-remaining-first matching of
	// the active flows at rate 1 and delays the rest — admission control
	// applied over time (§7 R1), with the SRPT flavor of the
	// FCT-oriented transports ([5, 8] in the paper's references).
	MatchingScheduler
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FairSharing:
		return "fair-sharing"
	case MatchingScheduler:
		return "matching-scheduler"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	Clos *topology.Clos
	// Router places each arriving flow; required.
	Router Router
	// Discipline sets the service model; required.
	Discipline Discipline
	// ArrivalRate is the Poisson arrival rate (flows per unit time).
	ArrivalRate float64
	// MeanSize is the mean flow size (in capacity·time units).
	MeanSize float64
	// Sizes selects the flow-size distribution; the zero value means
	// SizeExponential.
	Sizes SizeDist
	// NumFlows is the number of arrivals to simulate.
	NumFlows int
	// Seed drives all randomness (arrivals, sizes, endpoints, router
	// tie-breaking).
	Seed int64
	// Obs attaches the runtime observability layer: arrival/departure/
	// recompute counters, per-round allocation counts, and a dynsim.run
	// span (the root of its own trace on the journal) with a
	// dynsim.flow_starved span per flow-starvation transition (an active
	// flow's rate dropping to zero). nil disables instrumentation.
	Obs *obs.Obs
}

// Result aggregates one run.
type Result struct {
	// FCTs are the completion times minus arrival times, one per flow,
	// in arrival order.
	FCTs []float64
	// Slowdowns are FCT / (size / capacity), ≥ 1 up to numerical noise.
	Slowdowns []float64
	// Duration is the simulated time until the last departure.
	Duration float64
	// TotalBytes is the sum of all flow sizes.
	TotalBytes float64
}

// MeanFCT returns the mean flow completion time.
func (r *Result) MeanFCT() float64 { return mean(r.FCTs) }

// MeanSlowdown returns the mean slowdown.
func (r *Result) MeanSlowdown() float64 { return mean(r.Slowdowns) }

// P99Slowdown returns the 99th-percentile slowdown.
func (r *Result) P99Slowdown() float64 { return percentile(r.Slowdowns, 0.99) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-quantile (p in [0, 1]) of xs under linear
// interpolation between closest ranks, so p=1.0 is the maximum, p=0 the
// minimum, and a single sample is every percentile of itself.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// State is the live simulator state exposed to routers.
type State struct {
	clos *topology.Clos
	// inLoad[i-1][m-1] and outLoad[o-1][m-1] are the current service
	// rates crossing I_i->M_m and M_m->O_o.
	inLoad  [][]float64
	outLoad [][]float64
	rng     *rand.Rand
}

// Clos returns the topology under simulation.
func (s *State) Clos() *topology.Clos { return s.clos }

// FabricLoad returns the current load of I_i→M_m and M_m→O_o.
func (s *State) FabricLoad(i, m, o int) (in, out float64) {
	return s.inLoad[i-1][m-1], s.outLoad[o-1][m-1]
}

// RNG returns the run's random source (for randomized routers).
func (s *State) RNG() *rand.Rand { return s.rng }

// activeFlow is one in-flight flow.
type activeFlow struct {
	id        int
	flow      core.Flow
	middle    int
	remaining float64
	arrived   float64
	rate      float64
	starved   bool // rate was zero at the last recompute (starvation edge tracking)
	// handle addresses the flow inside the incremental evaluator
	// (FairSharing only).
	handle core.FlowID
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Clos == nil || cfg.Router == nil {
		return nil, fmt.Errorf("dynsim: Clos and Router are required")
	}
	if cfg.Discipline != FairSharing && cfg.Discipline != MatchingScheduler {
		return nil, fmt.Errorf("dynsim: unknown discipline %d", cfg.Discipline)
	}
	if cfg.ArrivalRate <= 0 || cfg.MeanSize <= 0 || cfg.NumFlows <= 0 {
		return nil, fmt.Errorf("dynsim: ArrivalRate, MeanSize and NumFlows must be positive")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	c := cfg.Clos
	st := &State{
		clos:    c,
		inLoad:  zeroGrid(c.NumToRs(), c.Size()),
		outLoad: zeroGrid(c.NumToRs(), c.Size()),
		rng:     rng,
	}

	// Under FairSharing every event is a single-flow delta against the
	// incremental exact max-min evaluator; the matching scheduler keeps
	// its own combinatorial allocation.
	var ie *core.IncrementalEvaluator
	if cfg.Discipline == FairSharing {
		ie = core.NewIncrementalEvaluator(c)
		ie.Instrument(cfg.Obs)
	}

	res := &Result{
		FCTs:      make([]float64, cfg.NumFlows),
		Slowdowns: make([]float64, cfg.NumFlows),
	}

	// Pre-draw arrivals and sizes for reproducibility independent of the
	// routing policy's RNG consumption.
	drawSize, err := cfg.Sizes.sampler(cfg.MeanSize, rng)
	if err != nil {
		return nil, err
	}
	arrivals := make([]float64, cfg.NumFlows)
	sizes := make([]float64, cfg.NumFlows)
	flows := make([]core.Flow, cfg.NumFlows)
	now := 0.0
	tors, spt := c.NumToRs(), c.ServersPerToR()
	for i := range arrivals {
		now += rng.ExpFloat64() / cfg.ArrivalRate
		arrivals[i] = now
		sizes[i] = drawSize()
		res.TotalBytes += sizes[i]
		flows[i] = core.Flow{
			Src: c.Source(rng.Intn(tors)+1, rng.Intn(spt)+1),
			Dst: c.Dest(rng.Intn(tors)+1, rng.Intn(spt)+1),
		}
	}

	var active []*activeFlow
	clock := 0.0
	nextArrival := 0

	// Observability handles; all nil-safe when cfg.Obs is nil.
	reg := cfg.Obs.Registry()
	sp, ctx := cfg.Obs.StartSpan(context.Background(), "dynsim.run")
	defer sp.End()
	cArrivals := reg.Counter("dynsim.arrivals")
	cDepartures := reg.Counter("dynsim.departures")
	cRecomputes := reg.Counter("dynsim.rate_recomputes")
	cAllocations := reg.Counter("dynsim.round_allocations")
	cStarvations := reg.Counter("dynsim.starvation_events")

	for nextArrival < cfg.NumFlows || len(active) > 0 {
		// Next event: arrival, or earliest completion at current rates.
		tArr := math.Inf(1)
		if nextArrival < cfg.NumFlows {
			tArr = arrivals[nextArrival]
		}
		tDone := math.Inf(1)
		var done *activeFlow
		for _, af := range active {
			if af.rate <= 0 {
				continue
			}
			t := clock + af.remaining/af.rate
			if t < tDone {
				tDone = t
				done = af
			}
		}
		if tArr == math.Inf(1) && tDone == math.Inf(1) {
			return nil, fmt.Errorf("dynsim: deadlock with %d active flows at t=%v", len(active), clock)
		}

		// Advance the clock, draining remaining sizes at current rates.
		tNext := math.Min(tArr, tDone)
		dt := tNext - clock
		for _, af := range active {
			af.remaining -= af.rate * dt
		}
		clock = tNext

		switch {
		case tDone <= tArr && done != nil:
			// Departure.
			res.FCTs[done.id] = clock - done.arrived
			res.Slowdowns[done.id] = res.FCTs[done.id] / (sizes[done.id] / 1.0)
			active = removeFlow(active, done)
			if ie != nil {
				if err := ie.Depart(done.handle); err != nil {
					return nil, fmt.Errorf("dynsim: departure delta: %w", err)
				}
			}
			cDepartures.Inc()
		default:
			// Arrival: route it and admit it.
			f := flows[nextArrival]
			m, err := cfg.Router.Place(st, f)
			if err != nil {
				return nil, fmt.Errorf("dynsim: router: %w", err)
			}
			if m < 1 || m > c.Size() {
				return nil, fmt.Errorf("dynsim: router chose middle %d outside [1,%d]", m, c.Size())
			}
			af := &activeFlow{
				id:        nextArrival,
				flow:      f,
				middle:    m,
				remaining: sizes[nextArrival],
				arrived:   clock,
			}
			if ie != nil {
				h, err := ie.Arrive(f, m)
				if err != nil {
					return nil, fmt.Errorf("dynsim: arrival delta: %w", err)
				}
				af.handle = h
			}
			active = append(active, af)
			nextArrival++
			cArrivals.Inc()
		}

		if err := recomputeRates(c, st, active, cfg.Discipline, ie); err != nil {
			return nil, err
		}
		cRecomputes.Inc()
		cAllocations.Add(int64(len(active)))
		// Starvation edges: an active flow whose recomputed rate is zero
		// is making no progress — the dynamic analogue of the Theorem 4.3
		// starvation the static searches measure. Journal each transition
		// into starvation once, not every recompute it persists through.
		for _, af := range active {
			if af.rate <= 0 {
				if !af.starved {
					af.starved = true
					cStarvations.Inc()
					if ssp := obs.Start(ctx, "dynsim.flow_starved"); ssp.Recording() {
						ssp.Int("flow", af.id).Int("middle", af.middle).Str("t", strconv.FormatFloat(clock, 'g', -1, 64)).End()
					}
				}
			} else {
				af.starved = false
			}
		}
	}
	if ie != nil {
		sp.Int("promotions", ie.Promotions())
	}
	res.Duration = clock
	return res, nil
}

// recomputeRates sets the service rate of every active flow according to
// the discipline and refreshes the fabric load grids. Under FairSharing
// the rates are read off the incremental evaluator, which the event
// loop has already updated with this event's delta.
func recomputeRates(c *topology.Clos, st *State, active []*activeFlow, d Discipline, ie *core.IncrementalEvaluator) error {
	clearGrid(st.inLoad)
	clearGrid(st.outLoad)
	if len(active) == 0 {
		return nil
	}
	switch d {
	case FairSharing:
		for _, af := range active {
			r, err := ie.Rate(af.handle)
			if err != nil {
				return fmt.Errorf("dynsim: %w", err)
			}
			af.rate, _ = r.Float64()
		}
	case MatchingScheduler:
		if err := scheduleMatching(c, active); err != nil {
			return err
		}
	}
	for _, af := range active {
		i, _ := c.InputOf(af.flow.Src)
		o, _ := c.OutputOf(af.flow.Dst)
		st.inLoad[i-1][af.middle-1] += af.rate
		st.outLoad[o-1][af.middle-1] += af.rate
	}
	return nil
}

func zeroGrid(rows, cols int) [][]float64 {
	g := make([][]float64, rows)
	for i := range g {
		g[i] = make([]float64, cols)
	}
	return g
}

func clearGrid(g [][]float64) {
	for i := range g {
		for j := range g[i] {
			g[i][j] = 0
		}
	}
}

func removeFlow(active []*activeFlow, target *activeFlow) []*activeFlow {
	for i, af := range active {
		if af == target {
			active[i] = active[len(active)-1]
			return active[:len(active)-1]
		}
	}
	return active
}
