package core

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// FlowID is a stable handle on a flow held by an IncrementalEvaluator.
// Handles survive arrivals and departures of other flows; a departed
// flow's handle may be reused by a later arrival.
type FlowID int

// IncrementalEvaluator maintains the max-min fair allocation of a
// mutating flow set over one fixed fabric: flows arrive, depart and
// reroute one at a time, and after every mutation the allocation equals
// what ClosMaxMinFair of the current (Collection, MiddleAssignment)
// would return — exactly, as rationals.
//
// It drives the package's water-filling kernel over a persistent flow
// table and keeps the trace of the last fill: per round, the kernel's
// integer state at the round's start (remaining numerators, active
// counts, shared denominator, level numerator) and its outcome
// (bottleneck lane, level advance minR/(den·minA), saturated lanes,
// frozen flows). The denominator is seeded once per evaluator, so a
// replayed round sees the same denominators as the run it replaces. A
// delta perturbs only the lanes of the changed path(s) — the affected
// set A — and round r replays unchanged iff its bottleneck and
// saturated lanes are outside A, its frozen flows are all still live,
// and every A-lane's fresh delta is STRICTLY above the round's min
// delta, remN·minA > minR·act (a tie would saturate an A-lane). A clean
// round costs O(|A|): rescale and drain the A-lanes, reapply the
// recorded freezes, patch the snapshot's A-entries. At the first dirty
// round the kernel resumes from that round's snapshot, recording a
// fresh suffix. Reused rounds count on core.delta_levels_skipped, every
// mutation-triggered fill on core.delta_fills.
//
// On the fast path every live flow's rate is the Rat64 level of the
// round that froze it (Rates64); a *big.Rat exists only once Rate asks
// for one, one per round and shared by its flows. Any int64 overflow —
// during replay or resume — re-runs the whole fill losslessly on the
// kernel's *big.Rat path (core.delta_promotions), leaves the rates in
// *big.Rat form until the next fast fill (Promoted) and poisons the
// trace; the next mutation runs one full fast fill to rebuild it.
// ForceBig pins the big.Rat path. An IncrementalEvaluator is NOT safe
// for concurrent use.
type IncrementalEvaluator struct {
	fab  *PreparedFabric
	n    int           // path choices
	path topology.Path // AppendPath scratch

	// The kernel's lanes, on-lists and frozen flags are indexed by
	// handle: its topology is the flow table itself.
	k        *kernel
	forceBig bool

	// Flow table: slot-allocated, so FlowID handles stay stable across
	// departures; order lists the live handles in insertion order. By
	// handle, a fast fill leaves each rate in rates64 and the trace
	// round that froze it in roundOf; a big.Rat fill leaves the rates in
	// ratesBig and sets promoted.
	flows    []iflow
	rates64  []rational.Rat64
	roundOf  []int32
	ratesBig []*big.Rat
	promoted bool
	free     []FlowID
	order    []FlowID

	// trace[r] is round r of the last successful fast fill; the last
	// entry is open, holding only the terminal state.
	trace      []incRound
	traceValid bool
	inAff      []bool // by lane: member of the current affected set
	promotions int

	// testOverflow, when non-nil, forces an int64 overflow at the given
	// round index — the promotion tests' hook.
	testOverflow func(round int) bool

	cFills      *obs.Counter
	cSkipped    *obs.Counter
	cPromotions *obs.Counter
	jour        *obs.Journal
}

// iflow is one flow slot.
type iflow struct {
	flow   Flow
	middle int
	live   bool
}

// incRound is one round of the trace: the kernel state at its start,
// then its outcome (level is the rate of every flow frozen in it, and
// levelRat its *big.Rat form once Rate has asked for it).
type incRound struct {
	den, levelN int64
	remN        []int64
	act         []int32

	minJ       int32
	minR, minA int64
	level      rational.Rat64
	levelRat   *big.Rat
	sat        []int32
	frozen     []int32
}

// NewIncrementalEvaluator prepares incremental max-min fair evaluation
// over fab's prepared fabric (PrepareFabric), starting from the empty
// flow set.
func NewIncrementalEvaluator(fab topology.Fabric) *IncrementalEvaluator {
	pf := PrepareFabric(fab)
	k := pf.caps.newKernel()
	return &IncrementalEvaluator{fab: pf, n: pf.Size(), k: k, inAff: make([]bool, len(k.act))}
}

// Instrument attaches the observability layer (the core.delta_*
// counters and core.delta_promotion events); a nil o costs nothing.
func (ie *IncrementalEvaluator) Instrument(o *obs.Obs) {
	reg := o.Registry()
	ie.cFills = reg.Counter("core.delta_fills")
	ie.cSkipped = reg.Counter("core.delta_levels_skipped")
	ie.cPromotions = reg.Counter("core.delta_promotions")
	ie.jour = o.Journal()
}

// ForceBig pins every fill to the (identical) *big.Rat path when on.
func (ie *IncrementalEvaluator) ForceBig(on bool) { ie.forceBig = on }

// Promotions returns the number of fills re-run on *big.Rat so far.
func (ie *IncrementalEvaluator) Promotions() int { return ie.promotions }

// Len returns the number of live flows.
func (ie *IncrementalEvaluator) Len() int { return len(ie.order) }

// lanes resolves a flow's path via middle to its lane list.
func (ie *IncrementalEvaluator) lanes(f Flow, middle int) ([]int32, error) {
	if middle < 1 || middle > ie.n {
		return nil, fmt.Errorf("incremental: middle %d out of range [1, %d]", middle, ie.n)
	}
	var err error
	if ie.path, err = ie.fab.AppendPath(ie.path[:0], f.Src, f.Dst, middle); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return ie.fab.laneOf.appendLanes(make([]int32, 0, len(ie.path)), ie.path), nil
}

// Arrive admits a flow on the path selected by middle and refills. On
// success the returned handle addresses the flow in Depart/Reroute/
// Rate; on error the evaluator state is unchanged.
func (ie *IncrementalEvaluator) Arrive(f Flow, middle int) (FlowID, error) {
	lanes, err := ie.lanes(f, middle)
	if err != nil {
		return -1, err
	}
	var h FlowID
	if n := len(ie.free); n > 0 {
		h = ie.free[n-1]
		ie.free = ie.free[:n-1]
	} else {
		h = FlowID(len(ie.flows))
		ie.flows = append(ie.flows, iflow{})
		ie.rates64 = append(ie.rates64, rational.Rat64{})
		ie.roundOf = append(ie.roundOf, 0)
		ie.ratesBig = append(ie.ratesBig, nil)
		ie.k.lanes = append(ie.k.lanes, nil)
		ie.k.frozen = append(ie.k.frozen, false)
	}
	ie.flows[h] = iflow{flow: f, middle: middle, live: true}
	ie.k.lanes[h] = lanes
	ie.order = append(ie.order, h)
	for _, j := range lanes {
		ie.k.on[j] = append(ie.k.on[j], int32(h))
	}

	if err := ie.refill(lanes); err != nil {
		// Roll the admission back (the handle was never returned) and
		// restore the previous allocation, which filled successfully.
		ie.detach(h)
		ie.refill(lanes)
		return -1, err
	}
	return h, nil
}

// Depart removes a live flow and refills.
func (ie *IncrementalEvaluator) Depart(id FlowID) error {
	if err := ie.checkLive(id); err != nil {
		return err
	}
	ie.detach(id)
	return ie.refill(ie.k.lanes[id])
}

// detach unlinks a live flow from the table and frees its slot.
func (ie *IncrementalEvaluator) detach(id FlowID) {
	for _, j := range ie.k.lanes[id] {
		ie.k.on[j] = removeHandle(ie.k.on[j], id)
	}
	for i, h := range ie.order {
		if h == id {
			ie.order = append(ie.order[:i], ie.order[i+1:]...)
			break
		}
	}
	ie.flows[id].live = false
	ie.free = append(ie.free, id)
}

// Reroute moves a live flow onto the path selected by middle and
// refills. The affected set is the union of the old and new paths'
// lanes.
func (ie *IncrementalEvaluator) Reroute(id FlowID, middle int) error {
	if err := ie.checkLive(id); err != nil {
		return err
	}
	lanes, err := ie.lanes(ie.flows[id].flow, middle)
	if err != nil {
		return err
	}
	aff := make([]int32, 0, 2*len(lanes))
	for _, j := range ie.k.lanes[id] {
		ie.k.on[j] = removeHandle(ie.k.on[j], id)
		aff = append(aff, j)
	}
	for _, j := range lanes {
		ie.k.on[j] = append(ie.k.on[j], int32(id))
		if !slices.Contains(ie.k.lanes[id], j) {
			aff = append(aff, j)
		}
	}
	ie.flows[id].middle, ie.k.lanes[id] = middle, lanes
	return ie.refill(aff)
}

func (ie *IncrementalEvaluator) checkLive(id FlowID) error {
	if id < 0 || int(id) >= len(ie.flows) || !ie.flows[id].live {
		return fmt.Errorf("incremental: no live flow with handle %d", id)
	}
	return nil
}

// Rate returns the current rate of a live flow. The returned value is
// shared and must not be mutated.
func (ie *IncrementalEvaluator) Rate(id FlowID) (*big.Rat, error) {
	if err := ie.checkLive(id); err != nil {
		return nil, err
	}
	return ie.rate(id), nil
}

// rate is Rate for a live flow. On the fast path it materializes the
// freezing round's level once and shares it among the round's flows.
func (ie *IncrementalEvaluator) rate(id FlowID) *big.Rat {
	if ie.promoted {
		return ie.ratesBig[id]
	}
	rd := &ie.trace[ie.roundOf[id]]
	if rd.levelRat == nil {
		rd.levelRat = rd.level.Rat()
	}
	return rd.levelRat
}

// Rates returns the current allocation in Flows order, in a fresh
// vector whose shared elements must not be mutated.
func (ie *IncrementalEvaluator) Rates() rational.Vec {
	v := make(rational.Vec, 0, len(ie.order))
	for _, h := range ie.order {
		v = append(v, ie.rate(h))
	}
	return v
}

// Promoted reports whether the current allocation was computed on the
// *big.Rat path (after an overflow, or under ForceBig); Rates64 is
// then invalid and Rate is the only reader.
func (ie *IncrementalEvaluator) Promoted() bool { return ie.promoted }

// Rates64 returns the current rates indexed by FlowID: entry h is live
// flow h's rate, and the entries of departed handles are meaningless.
// It is only valid when !Promoted(), must not be mutated, and is
// overwritten by the next mutation.
func (ie *IncrementalEvaluator) Rates64() []rational.Rat64 { return ie.rates64 }

// Flows returns the live flow set in insertion order: the collection,
// the middle assignment, and the handle of each entry.
func (ie *IncrementalEvaluator) Flows() (Collection, MiddleAssignment, []FlowID) {
	fs := make(Collection, 0, len(ie.order))
	ma := make(MiddleAssignment, 0, len(ie.order))
	ids := make([]FlowID, 0, len(ie.order))
	for _, h := range ie.order {
		fs = append(fs, ie.flows[h].flow)
		ma = append(ma, ie.flows[h].middle)
		ids = append(ids, h)
	}
	return fs, ma, ids
}

// refill recomputes the allocation after a mutation whose affected
// lane set is aff (no duplicates). On any error the trace is invalid.
func (ie *IncrementalEvaluator) refill(aff []int32) error {
	ie.cFills.Inc()
	k := ie.k
	if !k.fast || ie.forceBig {
		return ie.fillBig()
	}
	replay := ie.traceValid && len(aff) > 0
	ie.traceValid = false
	if !replay {
		ie.prepare()
		k.seed()
		ie.trace = ie.trace[:0]
		ie.push()
		return ie.resume(len(ie.order))
	}

	// The affected lanes' post-mutation state lives in the kernel's own
	// entries, from round 0's seed on, and patches each round's snapshot
	// before it replays; unaffected entries match the old run.
	for _, h := range ie.order {
		k.frozen[h] = false
	}
	for _, j := range aff {
		ie.inAff[j] = true
		k.remN[j], k.act[j] = k.seedN[j], int32(len(k.on[j]))
	}
	r, frozenCount, overflow := 0, 0, false
	for ; ; r++ {
		for _, j := range aff {
			ie.trace[r].remN[j], ie.trace[r].act[j] = k.remN[j], k.act[j]
		}
		if r == len(ie.trace)-1 {
			break
		}
		clean, over := ie.replayRound(r, aff)
		if overflow = over; over || !clean {
			break
		}
		frozenCount += len(ie.trace[r].frozen)
	}
	for _, j := range aff {
		ie.inAff[j] = false
	}
	ie.cSkipped.Add(int64(r))
	if overflow {
		return ie.promote()
	}
	ie.trace = ie.trace[:r+1]
	return ie.resume(len(ie.order) - frozenCount)
}

// replayRound replays recorded round r on the affected lanes and
// reapplies its freezes if the mutation left it clean; otherwise the
// filling resumes from its snapshot, or promotes on overflow.
func (ie *IncrementalEvaluator) replayRound(r int, aff []int32) (clean, overflow bool) {
	k, rd := ie.k, &ie.trace[r]
	if ie.inAff[rd.minJ] {
		return false, false
	}
	for _, j := range rd.sat {
		if ie.inAff[j] {
			return false, false
		}
	}
	for _, h := range rd.frozen {
		if !ie.flows[h].live {
			return false, false
		}
	}
	for _, j := range aff {
		a := int64(k.act[j])
		if a == 0 {
			continue
		}
		lhs, ok1 := mulNonNeg(k.remN[j], rd.minA)
		rhs, ok2 := mulNonNeg(rd.minR, a)
		if !ok1 || !ok2 {
			return false, true
		}
		if lhs <= rhs {
			return false, false
		}
	}
	if (ie.testOverflow != nil && ie.testOverflow(r)) || !k.drain(aff, rd.minR, rd.minA) {
		return false, true
	}
	// The round's flows keep the rate and round the last fill gave them:
	// a delta's own flow is never frozen in a clean round (its lanes are
	// affected), and a departed handle is in no round of the trace.
	for _, h := range rd.frozen {
		k.frozen[h] = true
		for _, j := range k.lanes[h] {
			if ie.inAff[j] {
				k.act[j]--
			}
		}
	}
	return true, false
}

// prepare loads the live flow set into the kernel for a fill from
// scratch: active counts from the on-lists, every live flow unfrozen.
func (ie *IncrementalEvaluator) prepare() {
	for j, on := range ie.k.on {
		ie.k.act[j] = int32(len(on))
	}
	ie.k.touchActive()
	for _, h := range ie.order {
		ie.k.frozen[h] = false
	}
	ie.k.left = len(ie.order)
}

// resume restores the kernel from the open trace entry, with left flows
// still unfrozen, and runs the fast filling to completion, closing the
// entry with each round's outcome and opening the next.
func (ie *IncrementalEvaluator) resume(left int) error {
	k, rd := ie.k, &ie.trace[len(ie.trace)-1]
	copy(k.remN, rd.remN)
	copy(k.act, rd.act)
	k.den, k.levelN, k.left = rd.den, rd.levelN, left
	k.touchActive()
	for k.left > 0 {
		if ie.testOverflow != nil && ie.testOverflow(len(ie.trace)-1) {
			return ie.promote()
		}
		ok, err := k.round()
		if err != nil {
			return err
		}
		if !ok {
			return ie.promote()
		}
		r := len(ie.trace) - 1
		rd := &ie.trace[r]
		rd.minJ, rd.minR, rd.minA, rd.level, rd.levelRat = k.minJ, k.minR, k.minA, k.level, nil
		rd.sat = append(rd.sat[:0], k.sat...)
		rd.frozen = append(rd.frozen[:0], k.froze...)
		for _, h := range k.froze {
			ie.rates64[h], ie.roundOf[h] = k.level, int32(r)
		}
		ie.push()
	}
	ie.traceValid, ie.promoted = true, false
	return nil
}

// push opens a trace entry holding the kernel state, recycling the
// arrays of a truncated entry (replays re-extend the trace per delta).
func (ie *IncrementalEvaluator) push() {
	k := ie.k
	if len(ie.trace) < cap(ie.trace) {
		ie.trace = ie.trace[:len(ie.trace)+1]
	} else {
		ie.trace = append(ie.trace, incRound{})
	}
	rd := &ie.trace[len(ie.trace)-1]
	if rd.remN == nil {
		rd.remN, rd.act = make([]int64, len(k.remN)), make([]int32, len(k.act))
	}
	rd.den, rd.levelN = k.den, k.levelN
	copy(rd.remN, k.remN)
	copy(rd.act, k.act)
}

// promote re-runs the current fill losslessly on *big.Rat after an
// int64 overflow.
func (ie *IncrementalEvaluator) promote() error {
	ie.promotions++
	ie.cPromotions.Inc()
	if ie.jour != nil {
		ie.jour.Emit("core.delta_promotion", obs.F{"promotions": ie.promotions})
	}
	return ie.fillBig()
}

// fillBig runs the whole fill on *big.Rat, recording no trace.
func (ie *IncrementalEvaluator) fillBig() error {
	ie.traceValid, ie.promoted = false, true
	ie.prepare()
	return ie.k.fillBig(context.TODO(), ie.ratesBig)
}

func removeHandle(on []int32, h FlowID) []int32 {
	for i, x := range on {
		if x == int32(h) {
			return append(on[:i], on[i+1:]...)
		}
	}
	return on
}
