// Parallel enumeration engine for the routing space R.
//
// The engine ranks an enumeration space — by default the
// symmetry-canonical space of canon.go (one representative per
// middle-relabeling orbit), or the full base-n counter space under
// Options.FullSpace — and shards contiguous rank ranges over worker
// goroutines. Each worker decodes its first state from the rank itself
// (no shared counter exists) and evaluates max-min fair allocations
// with a private core evaluator whose kernel scratch is reused across
// states. Shard-local incumbents are merged with a deterministic
// reduction: shards are visited in ascending rank order and an
// incumbent is replaced only on strict improvement, so the merged
// winner is the earliest-rank optimum — bit-identical to the serial
// result regardless of worker count, and (because canonical
// representatives are the min-rank elements of their orbits, visited in
// ascending full-space rank) bit-identical to the legacy full-space
// serial scan as well.
//
// Early exit (the Lemma 3.2/5.2 throughput upper bound) and inner errors
// propagate through a cancellation signal: a worker whose incumbent
// provably attains the global optimum at rank r publishes stop rank r+1,
// and every worker aborts as soon as its next rank is at or beyond the
// lowest published stop rank. Ranks below the stop rank are always fully
// evaluated, which keeps the early-exit result (and Result.States, which
// counts exactly the deterministic prefix [0, stop)) identical to the
// serial schedule; the few speculative evaluations a worker may perform
// beyond the stop rank before the signal reaches it are discarded and
// uncounted.
package search

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"closnet/internal/core"
	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// ctxCheckMask sets the cancellation polling cadence: each enumeration
// loop polls Options.Ctx once every ctxCheckMask+1 states. Per-state
// evaluation is microseconds, so 64 states bound the cancellation
// latency well under a millisecond while keeping the poll off the
// per-state fast path.
const ctxCheckMask = 63

// engineObs carries the preregistered observability handles of one
// search run. All handles are nil-safe, so a zero/nil-field value (the
// Options.Obs == nil case) disables instrumentation at the cost of one
// predictable nil check per touch point and zero allocations.
type engineObs struct {
	obs          *obs.Obs
	j            *obs.Journal
	states       *obs.Counter // assignments actually evaluated (includes speculative ones beyond the stop rank)
	improvements *obs.Counter // incumbent improvements across all shards
	earlyExits   *obs.Counter // stop-rank publications (Lemma 3.2/5.2 bound attained)
	boundEvals   *obs.Counter // relaxation bound evaluations (pruned mode only)
	prunes       *obs.Counter // subtrees cut by the bound (pruned mode only)
	spaceTotal   *obs.Gauge   // cumulative size of the enumerated spaces
	stopRank     *obs.Gauge   // last early-exit stop rank (0 when no search exited early)
	duration     *obs.Timer   // wall time per search run
}

func newEngineObs(o *obs.Obs) engineObs {
	reg := o.Registry()
	return engineObs{
		obs:          o,
		j:            o.Journal(),
		states:       reg.Counter("search.states"),
		improvements: reg.Counter("search.improvements"),
		earlyExits:   reg.Counter("search.early_exits"),
		boundEvals:   reg.Counter("search.bound_evals"),
		prunes:       reg.Counter("search.pruned_subtrees"),
		spaceTotal:   reg.Gauge("search.space_total"),
		stopRank:     reg.Gauge("search.stop_rank"),
		duration:     reg.Timer("search.duration"),
	}
}

// enumSpace is a ranked enumeration order over middle assignments:
// either the full n^|F| counter space or the symmetry-canonical space.
type enumSpace interface {
	total() int
	// cursor binds ma to a fresh cursor positioned at rank, writing the
	// rank's assignment into ma. Advancing the cursor mutates ma to the
	// successor state.
	cursor(rank int, ma core.MiddleAssignment) spaceCursor
}

// spaceCursor steps its bound assignment through the space in rank
// order.
type spaceCursor interface {
	advance()
}

// fullSpace is the unreduced routing space: the base-n counter over all
// numFlows positions, with position 0 the least-significant digit, so
// rank order is exactly the serial enumeration order of `enumerate`.
type fullSpace struct {
	n, numFlows int
	tot         int
}

func newFullSpace(n, numFlows, maxStates int) (*fullSpace, error) {
	total := stateCount(n, numFlows, maxStates)
	if total < 0 {
		return nil, tooManyStatesError(n, numFlows, maxStates)
	}
	return &fullSpace{n: n, numFlows: numFlows, tot: total}, nil
}

func (s *fullSpace) total() int { return s.tot }

// decode writes the assignment with the given rank into ma: digit d of
// the rank (base n, least significant first) becomes ma[d] - 1.
// Rank 0 is the all-ones assignment.
func (s *fullSpace) decode(rank int, ma core.MiddleAssignment) {
	for pos := 0; pos < s.numFlows; pos++ {
		ma[pos] = 1 + rank%s.n
		rank /= s.n
	}
}

func (s *fullSpace) cursor(rank int, ma core.MiddleAssignment) spaceCursor {
	s.decode(rank, ma)
	return &fullCursor{s: s, ma: ma}
}

type fullCursor struct {
	s  *fullSpace
	ma core.MiddleAssignment
}

// advance steps ma to the successor rank in place (the base-n counter
// step). Advancing the last rank wraps back to rank 0; callers bound
// their loops by rank, so the wrap is never observed.
func (c *fullCursor) advance() {
	for pos := 0; pos < c.s.numFlows; pos++ {
		if c.ma[pos] < c.s.n {
			c.ma[pos]++
			return
		}
		c.ma[pos] = 1
	}
}

// objective is the strict-improvement order driving an exhaustive
// optimizer. Implementations are stateful so they can cache values
// derived from the current incumbent — the sorted allocation vector for
// lex-max-min, the total throughput for throughput-max-min, the minimum
// target ratio for relative-max-min — computing them once per
// improvement instead of once per candidate. Each worker owns a private
// instance produced by the factory handed to the engine.
type objective interface {
	// improves reports whether cand strictly improves on the incumbent.
	// When no incumbent has been installed yet it must report true.
	improves(cand core.Allocation) bool
	// install makes cand the incumbent. The engine calls it immediately
	// after improves(cand) reported true, with the same cand, so
	// implementations may stash candidate-derived state in improves and
	// promote it here.
	install(cand core.Allocation)
	// optimal reports whether the incumbent provably attains the global
	// optimum (e.g. the Lemma 3.2 matching bound), allowing the
	// enumeration to stop early.
	optimal() bool
}

// workerCount resolves the Options.Workers policy: 0 means one worker
// per available core, 1 the serial path, k ≥ 2 exactly k workers.
func (o Options) workerCount() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// runEngine exhaustively optimizes the objective over the routing space
// of fs in c. The incumbent (assignment and allocation) is bit-identical
// for every worker count and for both enumeration spaces; Result.States
// counts the states of the space actually enumerated.
func runEngine(c topology.Fabric, fs core.Collection, opts Options, newObjective func() objective) (*Result, error) {
	if len(fs) == 0 {
		return &Result{Assignment: core.MiddleAssignment{}, Allocation: core.Allocation{}, States: 1}, nil
	}
	var (
		s   enumSpace
		err error
	)
	// Canonical (orbit-representative) enumeration is only sound when
	// relabeling the choice alphabet is an automorphism; fabrics without
	// that symmetry (fat-tree, Benes) always scan the full space.
	canon := !opts.FullSpace && c.SymmetricChoices()
	if canon {
		s, err = newCanonSpace(c.Size(), len(fs), opts.maxStates())
	} else {
		s, err = newFullSpace(c.Size(), len(fs), opts.maxStates())
	}
	if err != nil {
		return nil, err
	}
	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.workerCount()
	if workers > s.total() {
		workers = s.total()
	}
	eo := newEngineObs(opts.Obs)
	space := "canonical"
	if !canon {
		space = "full"
	}
	eo.spaceTotal.Add(int64(s.total()))
	eo.j.Emit("search.start", obs.F{
		"space": space, "total": s.total(), "workers": workers, "flows": len(fs), "n": c.Size(),
	})
	sp, ctx := obs.StartSpan(ctx, "search.run")
	sp.Attr("space", space).Attr("total", s.total()).Attr("workers", workers)
	start := time.Now()
	var res *Result
	if opts.FullSpace && workers <= 1 {
		// The exact legacy path: in-place counter walk evaluating
		// core.ClosMaxMinFair per state, kept as the independent oracle
		// the equivalence tests cross-check the engine against.
		res, err = runSerial(ctx, c, fs, opts, newObjective, eo)
	} else {
		res, err = runSharded(ctx, c, fs, s, workers, opts.blockSize(), newObjective, eo)
	}
	if err == nil && ctx.Err() != nil {
		// A run that is cancelled is cancelled, even when the enumeration
		// won the race to completion: no Result escapes, for any worker
		// count or cancellation timing.
		err = ctx.Err()
	}
	eo.duration.Observe(time.Since(start))
	sp.Attr("ok", err == nil).End()
	if err != nil {
		eo.j.Emit("search.error", obs.F{"error": err.Error()})
		return nil, err
	}
	eo.j.Emit("search.end", obs.F{"states": res.States})
	return res, nil
}

// runSerial is the exact legacy serial path: the in-place base-n counter
// walk of enumerate evaluating core.ClosMaxMinFair per state. The
// equivalence tests cross-check the Evaluator-based sharded engine (and
// the canonical enumeration) against this independent implementation.
func runSerial(ctx context.Context, c topology.Fabric, fs core.Collection, opts Options, newObjective func() objective, eo engineObs) (*Result, error) {
	sp, ctx := obs.StartSpan(ctx, "search.shard")
	sp.Attr("shard", 0)
	defer sp.End()
	obj := newObjective()
	done := ctx.Done()
	var (
		res      Result
		innerErr error
	)
	err := enumerate(c.Size(), len(fs), opts, func(ma core.MiddleAssignment) bool {
		if done != nil && res.States&ctxCheckMask == 0 {
			select {
			case <-done:
				innerErr = ctx.Err()
				return false
			default:
			}
		}
		a, err := core.ClosMaxMinFair(c, fs, ma)
		if err != nil {
			innerErr = err
			return false
		}
		res.States++
		eo.states.Inc()
		if obj.improves(a) {
			obj.install(a)
			res.Allocation = a
			res.Assignment = ma.Copy()
			eo.improvements.Inc()
			eo.j.Emit("search.incumbent", obs.F{"shard": 0, "rank": res.States - 1})
			if obj.optimal() {
				eo.earlyExits.Inc()
				eo.stopRank.Set(int64(res.States))
				eo.j.Emit("search.stop_rank", obs.F{"shard": 0, "rank": res.States})
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if innerErr != nil {
		return nil, innerErr
	}
	return &res, nil
}

// shardIncumbent is one worker's best state: the earliest rank in its
// shard attaining the shard-local optimum. rank < 0 means the shard was
// abandoned before producing an incumbent.
type shardIncumbent struct {
	rank  int
	ma    core.MiddleAssignment
	alloc core.Allocation
}

// blockCapable is the optional objective extension of the block
// evaluation path: fastImproves screens one candidate's Rat64 rate lane
// against the incumbent without materializing the allocation. ok =
// false means the screen could not decide (a Rat64 sum overflowed) and
// the engine falls back to the exact improves on the materialized
// allocation. A (false, true) verdict MUST be exact — the state is
// skipped for good — while a (true, true) verdict is always re-checked
// through improves, so the screen only needs soundness on rejections.
// Objectives without the extension (relative-max-min) evaluate per
// state.
type blockCapable interface {
	fastImproves(rates []rational.Rat64) (improves, ok bool)
}

func runSharded(ctx context.Context, c topology.Fabric, fs core.Collection, s enumSpace, workers, blockSize int, newObjective func() objective, eo engineObs) (*Result, error) {
	var (
		stopRank atomic.Int64 // exclusive bound: ranks ≥ stopRank are unneeded
		stopped  atomic.Bool  // some worker published a stop rank
		aborted  atomic.Bool  // an inner error cancels every worker
		errMu    sync.Mutex
		firstErr error
	)
	total := s.total()
	stopRank.Store(int64(total))
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		aborted.Store(true)
	}
	lowerStop := func(v int64) {
		for {
			cur := stopRank.Load()
			if v >= cur || stopRank.CompareAndSwap(cur, v) {
				return
			}
		}
	}

	incumbents := make([]shardIncumbent, workers)
	evaluated := make([]int, workers) // per-shard evaluation counts for the merge journal
	var wg sync.WaitGroup
	chunk, rem := total/workers, total%workers

	// Shard boundaries are journaled from this goroutine, before any
	// worker starts, so the shard_start sequence is deterministic.
	bounds := make([]int, workers+1)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		bounds[w], bounds[w+1] = lo, hi
		eo.j.Emit("search.shard_start", obs.F{"shard": w, "lo": lo, "hi": hi})
		lo = hi
	}

	// runBlock is the block-evaluation worker loop: rank-contiguous
	// blocks of assignments through one core.BlockEvaluator, with each
	// state screened by the objective's Rat64 fastImproves before any
	// allocation is materialized. Incumbent selection is bit-identical
	// to the per-state loop below: states are processed in ascending
	// rank, a screen rejection is exact, and a screen acceptance is
	// re-checked through the same obj.improves the per-state loop runs.
	// The stop rank is polled per block instead of per state, so a
	// worker may evaluate up to blockSize-1 speculative states beyond a
	// freshly published stop; like the per-state loop's speculative
	// tail, those can never strictly improve (the stop rank certifies a
	// global optimum) and the ascending-rank merge discards them.
	runBlock := func(ctx context.Context, w, lo, hi int, obj objective, bc blockCapable) {
		bev, err := core.NewBlockEvaluator(c, fs)
		if err != nil {
			fail(err)
			return
		}
		bev.Instrument(eo.obs)
		// The shard span is resolved once per worker, outside the block
		// loop: with tracing off it is nil, every Child below is a nil
		// no-op, and the hot loop stays allocation-free.
		ssp := obs.SpanFrom(ctx)
		local := &incumbents[w]
		local.rank = -1
		nf := len(fs)
		ma := make(core.MiddleAssignment, nf)
		cur := s.cursor(lo, ma)
		buf := make([]int, 0, blockSize*nf)
		done := ctx.Done()
		for rank := lo; rank < hi; {
			if aborted.Load() || int64(rank) >= stopRank.Load() {
				return
			}
			if done != nil {
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
			}
			k := blockSize
			if rank+k > hi {
				k = hi - rank
			}
			buf = buf[:0]
			for i := 0; i < k; i++ {
				buf = append(buf, ma...)
				cur.advance()
			}
			bsp := ssp.Child("core.block_fill")
			res, err := bev.EvalBlock(buf, k)
			bsp.Attr("block", k).End()
			if err != nil {
				fail(err)
				return
			}
			evaluated[w] += k
			eo.states.Add(int64(k))
			for i := 0; i < k; i++ {
				if !res.Promoted(i) {
					if imp, ok := bc.fastImproves(res.Rates64(i)); ok && !imp {
						continue
					}
				}
				a := res.Alloc(i)
				if !obj.improves(a) {
					continue
				}
				obj.install(a)
				local.rank = rank + i
				local.ma = core.MiddleAssignment(buf[i*nf : (i+1)*nf]).Copy()
				local.alloc = a
				eo.improvements.Inc()
				eo.j.Emit("search.incumbent", obs.F{"shard": w, "rank": rank + i})
				if obj.optimal() {
					lowerStop(int64(rank+i) + 1)
					stopped.Store(true)
					eo.earlyExits.Inc()
					eo.j.Emit("search.stop_rank", obs.F{"shard": w, "rank": rank + i + 1})
					return
				}
			}
			rank += k
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			wsp, ctx := obs.StartSpan(ctx, "search.shard")
			wsp.Attr("shard", w)
			defer wsp.End()
			obj := newObjective()
			if bc, ok := obj.(blockCapable); ok && blockSize > 1 {
				runBlock(ctx, w, lo, hi, obj, bc)
				return
			}
			ev, err := core.NewEvaluator(c, fs)
			if err != nil {
				fail(err)
				return
			}
			ev.Instrument(eo.obs)
			local := &incumbents[w]
			local.rank = -1
			ma := make(core.MiddleAssignment, len(fs))
			cur := s.cursor(lo, ma)
			done := ctx.Done()
			for rank := lo; rank < hi; rank++ {
				if aborted.Load() || int64(rank) >= stopRank.Load() {
					return
				}
				if done != nil && rank&ctxCheckMask == 0 {
					select {
					case <-done:
						fail(ctx.Err())
						return
					default:
					}
				}
				a, err := ev.Eval(ma)
				if err != nil {
					fail(err)
					return
				}
				evaluated[w]++
				eo.states.Inc()
				if obj.improves(a) {
					obj.install(a)
					local.rank = rank
					local.ma = ma.Copy()
					local.alloc = a
					eo.improvements.Inc()
					eo.j.Emit("search.incumbent", obs.F{"shard": w, "rank": rank})
					if obj.optimal() {
						// Every later rank is unneeded; earlier shards keep
						// running so the lowest optimal rank wins.
						lowerStop(int64(rank) + 1)
						stopped.Store(true)
						eo.earlyExits.Inc()
						eo.j.Emit("search.stop_rank", obs.F{"shard": w, "rank": rank + 1})
						return
					}
				}
				cur.advance()
			}
		}(w, bounds[w], bounds[w+1])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Deterministic reduction: shards in ascending rank order, replace
	// only on strict improvement. Equal-valued later incumbents (possible
	// speculative finds beyond the stop rank) lose to the earliest one.
	// The shard_merge journal events follow the same ascending order, so
	// trace consumers observe the reduction exactly as it ran.
	merged := newObjective()
	res := &Result{States: int(stopRank.Load())}
	for w := range incumbents {
		inc := &incumbents[w]
		improved := false
		if inc.rank >= 0 && merged.improves(inc.alloc) {
			merged.install(inc.alloc)
			res.Assignment = inc.ma
			res.Allocation = inc.alloc
			improved = true
		}
		eo.j.Emit("search.shard_merge", obs.F{
			"shard": w, "evaluated": evaluated[w], "rank": inc.rank, "improved": improved,
		})
	}
	// The gauge tracks every early exit, like runSerial's — including a
	// stop rank equal to the space total (optimum first attained at the
	// last rank), which the `stop < total` comparison previously missed,
	// so identical runs journaled different metrics per worker count.
	if stopped.Load() {
		eo.stopRank.Set(stopRank.Load())
	}
	return res, nil
}
