// The search driver.
//
// Every optimizer runs one envelope (run): it ranks the routing space —
// by default the symmetry-canonical space of space.go (one
// representative per middle-relabeling orbit), or the full base-n
// space under Options.FullSpace and on fabrics without interchangeable
// choices — journals the run, and hands the space to one of two
// explorers that share one objective, one incumbent rule and one
// leaf-block evaluator. Leaf values, bounds and the ceiling are the
// exact values of value.go — Rat64 lanes, or *big.Rat vectors where a
// fill promoted, a sum overflowed or the objective has no fast form —
// and one compare orders them all: there is no separate screen, and a
// leaf is valued on its lane without materializing its allocation.
// The explorers:
//
//   - the scan shards contiguous rank ranges over worker goroutines.
//     Each worker seeks its first state from the rank itself (no shared
//     counter exists) and water-fills rank-contiguous blocks through a
//     private core.BlockEvaluator. Shard-local incumbents are merged
//     with a deterministic reduction: shards are visited in ascending
//     rank order under the incumbent rule, so the merged winner is the
//     earliest-rank optimum — bit-identical for every worker count and
//     block size, and (because canonical representatives are the
//     min-rank elements of their orbits, visited in ascending full-space
//     rank) bit-identical to a full-space scan as well;
//   - the branch-and-bound of branchbound.go (Options.Pruned).
//
// Early exit (the Lemma 3.2/5.2 throughput ceiling) and inner errors
// propagate through a cancellation signal: a worker whose incumbent
// attains the ceiling at rank r publishes stop rank r+1, and every
// worker aborts as soon as its next block starts at or beyond the
// lowest published stop rank. Ranks below the stop rank are always
// fully evaluated, which keeps the early-exit result (and
// Result.States, which counts exactly the deterministic prefix
// [0, stop)) identical for every schedule; the few speculative
// evaluations a worker may perform beyond the stop rank before the
// signal reaches it can never win (the ceiling is a global optimum and
// ties go to the earlier rank) and are uncounted.
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

// ctxCheckMask sets the cancellation polling cadence of the
// branch-and-bound: it polls Options.Ctx once every ctxCheckMask+1
// node expansions.
const ctxCheckMask = 63

// scanBlock is the number of states a scan worker hands the block
// evaluator per call. It matches the branch-and-bound's polling cadence:
// the scan polls Options.Ctx and the stop rank once per block.
const scanBlock = ctxCheckMask + 1

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

// objective is one routing objective as both explorers see it: a value
// per state, ordered by value.cmp (single-number objectives use
// one-element values). It is immutable during a run, so the scan's
// workers share it.
type objective struct {
	// fast, when non-nil, appends the value of a fast-path rate lane
	// (flow order; it may alias scratch) to dst and returns it. ok =
	// false means it cannot (a Rat64 sum overflowed) and defers to exact.
	fast func(dst, rates []rational.Rat64) (lane []rational.Rat64, ok bool)
	// exact maps an allocation to its value as a *big.Rat vector.
	exact func(core.Allocation) rational.Vec
	// ceiling, when non-nil, is a value no state exceeds (the Lemma 3.2
	// matching bound): the scan stops once an incumbent attains it, and
	// the branch-and-bound caps its bounds at it.
	ceiling *value
	// bound, set in pruned mode, sets dst to an admissible value of a
	// partial assignment (flows [fixedFrom, |F|) fixed per ma): ≥ the
	// value of every completion.
	bound func(dst *value, ma core.MiddleAssignment, fixedFrom int) error

	// release, set with bound, hands the bound's evaluator back once the
	// run is over.
	release func()

	// testPromote, when non-nil, makes the explorers take the leaf state
	// or the bound whose block starts at the given rank in its promoted
	// *big.Rat form — the promotion tests' hook.
	testPromote func(rank int) bool
}

// done releases the objective's bound evaluator; the objective must
// not be used after.
func (o *objective) done() {
	if o.release != nil {
		o.release()
	}
}

// valueOf sets dst to the value of a state given as its rate lane, or
// as its allocation a when a is non-nil (a promoted state). A lane
// whose value the fast form cannot hold is materialized.
func (o *objective) valueOf(dst *value, rates []rational.Rat64, a core.Allocation) {
	if a == nil {
		if o.fast != nil {
			var ok bool
			if dst.lane, ok = o.fast(dst.lane[:0], rates); ok {
				dst.big = nil
				return
			}
		}
		a = core.AllocOf(rates)
	}
	dst.setBig(o.exact(a))
}

// incumbent is the best state seen so far; rank < 0 means none yet. It
// keeps the state's flow-order rate lane, or its promoted allocation,
// and materializes the allocation once, at the end of the run.
type incumbent struct {
	val   value
	rank  int
	ma    core.MiddleAssignment
	lane  []rational.Rat64
	alloc core.Allocation
}

// wins is the one incumbent rule: a state whose value compares cmp to
// the incumbent's replaces it when higher, or when equal at an earlier
// rank — so every explorer reports the earliest-rank optimum.
func (inc *incumbent) wins(cmp, rank int) bool {
	return cmp > 0 || (cmp == 0 && rank < inc.rank)
}

// improves applies the incumbent rule to a value at rank.
func (inc *incumbent) improves(val *value, rank int) bool {
	return inc.rank < 0 || inc.wins(val.cmp(&inc.val), rank)
}

// take makes the state at rank with assignment ma, given as its rate
// lane or its promoted allocation a, the incumbent. Its value is moved
// out of *val, which receives the old incumbent value's storage.
func (inc *incumbent) take(val *value, rank int, ma []int, rates []rational.Rat64, a core.Allocation) {
	inc.val, *val = *val, inc.val
	inc.rank = rank
	inc.ma = append(inc.ma[:0], ma...)
	inc.lane = append(inc.lane[:0], rates...)
	inc.alloc = a
}

// allocation materializes the incumbent's allocation (nil when there is
// none).
func (inc *incumbent) allocation() core.Allocation {
	if inc.rank < 0 || inc.alloc != nil {
		return inc.alloc
	}
	return core.AllocOf(inc.lane)
}

// leaves is the leaf-block evaluator of one scan worker or of the
// branch-and-bound: a block of rank-contiguous assignments is
// water-filled by one core.BlockEvaluator, and each state's value is
// taken from its Rat64 lane into reused scratch and compared with the
// incumbent's; no allocation is materialized on the way. Its owner
// releases the evaluator on every exit path; the incumbent keeps copies
// of whatever it took from the evaluator's scratch.
type leaves struct {
	obj   *objective
	bev   *core.BlockEvaluator
	eo    engineObs
	shard int
	best  *incumbent
	// blockSpans opens one core.block_fill span per block under the
	// span of eval's ctx.
	blockSpans bool
	cand       value
}

func newLeaves(c topology.Fabric, fs core.Collection, obj *objective, eo engineObs, shard int, best *incumbent) (*leaves, error) {
	bev, err := core.NewBlockEvaluator(c, fs)
	if err != nil {
		return nil, err
	}
	bev.Instrument(eo.obs)
	return &leaves{obj: obj, bev: bev, eo: eo, shard: shard, best: best}, nil
}

// eval evaluates the k assignments packed state-major in mas, ranked
// lo, lo+1, …, and returns the rank just past the first state whose
// value attains the ceiling, or -1. A promoted state's fill is bounded
// by ctx.
func (l *leaves) eval(ctx context.Context, mas []int, k, lo int) (int, error) {
	var bsp obs.Span
	if l.blockSpans {
		bsp = obs.Start(ctx, "core.block_fill")
	}
	res, err := l.bev.EvalBlockCtx(ctx, mas, k)
	bsp.Int("block", k).End()
	if err != nil {
		return -1, err
	}
	nf := len(mas) / k
	for i := 0; i < k; i++ {
		rank := lo + i
		rates, a := stateOf(res, i)
		if a == nil && l.obj.testPromote != nil && l.obj.testPromote(rank) {
			rates, a = nil, res.Alloc(i)
		}
		l.obj.valueOf(&l.cand, rates, a)
		if !l.best.improves(&l.cand, rank) {
			continue
		}
		l.best.take(&l.cand, rank, mas[i*nf:(i+1)*nf], rates, a)
		l.eo.improvements.Inc()
		if l.eo.j != nil {
			l.eo.j.Emit("search.incumbent", obs.F{"shard": l.shard, "rank": rank})
		}
		if l.obj.ceiling != nil && l.best.val.cmp(l.obj.ceiling) >= 0 {
			return rank + 1, nil
		}
	}
	return -1, nil
}

// workerCount resolves the Options.Workers policy: 0 means one worker
// per available core, k ≥ 1 exactly k workers.
func (o Options) workerCount() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// run optimizes obj over the routing space of fs in c: the scan in
// blocks of block states, or the branch-and-bound under opts.Pruned.
// The incumbent (assignment and allocation) is bit-identical for every
// worker count, block size and enumeration space; Result.States counts
// the states of the space actually enumerated (pruned: bound plus leaf
// evaluations).
func run(c topology.Fabric, fs core.Collection, opts Options, obj *objective, block int) (*Result, error) {
	if len(fs) == 0 {
		return &Result{Assignment: core.MiddleAssignment{}, Allocation: core.Allocation{}, States: 1}, nil
	}
	// Canonical (orbit-representative) enumeration is only sound when
	// relabeling the choice alphabet is an automorphism; fabrics without
	// that symmetry (fat-tree, Benes) always rank the full space.
	canon := !opts.FullSpace && c.SymmetricChoices()
	s, err := newSpace(c.Size(), len(fs), canon, opts.maxStates())
	if err != nil {
		return nil, err
	}
	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := min(opts.workerCount(), s.total())
	label := "canonical"
	switch {
	case opts.Pruned:
		label, workers = "pruned", 1
	case !canon:
		label = "full"
	}
	eo := newEngineObs(opts.Obs)
	eo.spaceTotal.Add(int64(s.total()))
	if eo.j != nil {
		eo.j.Emit("search.start", obs.F{
			"space": label, "total": s.total(), "workers": workers, "flows": len(fs), "n": c.Size(),
		})
	}
	sp, ctx := obs.StartSpan(ctx, "search.run")
	sp.Str("space", label).Int("total", s.total()).Int("workers", workers)
	start := time.Now()
	var res *Result
	if opts.Pruned {
		res, err = branchBound(ctx, c, fs, s, obj, eo)
	} else {
		res, err = scan(ctx, c, fs, s, workers, block, obj, eo)
	}
	if err == nil && ctx.Err() != nil {
		// A run that is cancelled is cancelled, even when the search won
		// the race to completion: no Result escapes, for any worker count
		// or cancellation timing.
		err = ctx.Err()
	}
	eo.duration.Observe(time.Since(start))
	sp.Bool("ok", err == nil).End()
	if err != nil {
		if eo.j != nil {
			eo.j.Emit("search.error", obs.F{"error": err.Error()})
		}
		return nil, err
	}
	if eo.j != nil {
		eo.j.Emit("search.end", obs.F{"states": res.States})
	}
	return res, nil
}

// scan evaluates every state of s below the stop rank, sharded over
// workers in blocks of block states.
func scan(ctx context.Context, c topology.Fabric, fs core.Collection, s *space, workers, block int, obj *objective, eo engineObs) (*Result, error) {
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

	shards := make([]incumbent, workers)
	evaluated := make([]int, workers) // per-shard evaluation counts for the merge journal
	chunk, rem := total/workers, total%workers

	// Shard boundaries are journaled from this goroutine, before any
	// worker starts, so the shard_start sequence is deterministic.
	bounds := make([]int, workers+1)
	for w := 0; w < workers; w++ {
		hi := bounds[w] + chunk
		if w < rem {
			hi++
		}
		bounds[w+1] = hi
		shards[w].rank = -1
		if eo.j != nil {
			eo.j.Emit("search.shard_start", obs.F{"shard": w, "lo": bounds[w], "hi": hi})
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			wsp, ctx := obs.StartSpan(ctx, "search.shard")
			wsp.Int("shard", w)
			defer wsp.End()
			l, err := newLeaves(c, fs, obj, eo, w, &shards[w])
			if err != nil {
				fail(err)
				return
			}
			defer l.bev.Release()
			// With tracing off every block span is the zero Span, and the
			// block loop stays allocation-free.
			l.blockSpans = true
			nf := len(fs)
			ma := make(core.MiddleAssignment, nf)
			cur := s.seek(lo, ma)
			buf := make([]int, 0, block*nf)
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
				k := min(block, hi-rank)
				buf = buf[:0]
				for i := 0; i < k; i++ {
					buf = append(buf, ma...)
					cur.advance()
				}
				stop, err := l.eval(ctx, buf, k, rank)
				if err != nil {
					fail(err)
					return
				}
				evaluated[w] += k
				eo.states.Add(int64(k))
				if stop >= 0 {
					// Every later rank is unneeded; earlier shards keep
					// running so the lowest optimal rank wins.
					lowerStop(int64(stop))
					stopped.Store(true)
					eo.earlyExits.Inc()
					if eo.j != nil {
						eo.j.Emit("search.stop_rank", obs.F{"shard": w, "rank": stop})
					}
					return
				}
				rank += k
			}
		}(w, bounds[w], bounds[w+1])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Deterministic reduction: shards in ascending rank order under the
	// incumbent rule, so equal-valued later incumbents (possible
	// speculative finds beyond the stop rank) lose to the earliest one.
	// The shard_merge journal events follow the same ascending order, so
	// trace consumers observe the reduction exactly as it ran.
	best := incumbent{rank: -1}
	for w := range shards {
		inc := &shards[w]
		improved := inc.rank >= 0 && best.improves(&inc.val, inc.rank)
		if improved {
			best = *inc
		}
		if eo.j != nil {
			eo.j.Emit("search.shard_merge", obs.F{
				"shard": w, "evaluated": evaluated[w], "rank": inc.rank, "improved": improved,
			})
		}
	}
	// The gauge tracks every early exit, including a stop rank equal to
	// the space total (optimum first attained at the last rank).
	if stopped.Load() {
		eo.stopRank.Set(stopRank.Load())
	}
	return &Result{Assignment: best.ma, Allocation: best.allocation(), States: int(stopRank.Load())}, nil
}
