package engine

import (
	"context"
	"errors"
	"math/big"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/doom"
	"closnet/internal/obs"
	"closnet/internal/search"
)

// computeEvaluate answers the evaluate op: the max-min fair allocation
// of the canonical scenario under its embedded routing (uniform middle
// 1 when absent), in canonical flow order.
func computeEvaluate(ctx context.Context, e *Engine, p *Prepared) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ma := core.MiddleAssignment(p.Canon.Assignment)
	if ma == nil {
		ma = core.UniformAssignment(len(p.Canon.Flows), 1)
	}
	return fill(ctx, e, p, ma, func(rates codec.Rates) []byte {
		return codec.EvaluateBody(&p.Hash, len(p.Canon.Flows), ma, rates)
	})
}

// fill water-fills p under ma on the pooled block evaluator of p's
// topology, bounded by ctx, and returns what body writes from the
// rates: the Rat64 lane unless the state was promoted.
func fill(ctx context.Context, e *Engine, p *Prepared, ma core.MiddleAssignment, body func(codec.Rates) []byte) ([]byte, error) {
	bev, err := e.evals.acquire(p.TopoHash, p.Canon, e.opts.Obs)
	if err != nil {
		return nil, err
	}
	defer e.evals.put(p.TopoHash, bev)
	sp := obs.Start(ctx, "core.block_fill")
	res, err := bev.EvalBlockCtx(ctx, ma, 1)
	sp.Int("block", 1).End()
	if err != nil {
		return nil, err
	}
	// The lane aliases the evaluator's scratch, so the body is written
	// before the deferred put returns the evaluator to the pool.
	rates := codec.Rates{Lane: res.Rates64(0)}
	if res.Promoted(0) {
		rates = codec.Rates{Big: res.Alloc(0)}
	}
	return body(rates), nil
}

// searchOp builds the compute function of one search objective, in the
// exhaustive or the pruned branch-and-bound strategy. The search:*
// registry entries are instances of this closure, so adding an
// objective is one constructor call in New. The assignment and rates of
// a :pruned op are bit-identical to the exhaustive op's; the strategy
// marker and the states count (bound plus leaf evaluations instead of
// enumerated states) are what distinguish the bodies.
func searchOp(objective string, pruned bool) computeFunc {
	return func(ctx context.Context, e *Engine, p *Prepared) ([]byte, error) {
		c, fs, err := e.fabric(p.Canon)
		if err != nil {
			return nil, err
		}
		opts := e.SearchOptions(ctx)
		opts.Pruned = pruned
		var (
			res      *search.Result
			minRatio *big.Rat
		)
		switch objective {
		case "lex":
			res, err = search.LexMaxMin(c, fs, opts)
		case "throughput":
			res, err = search.ThroughputMaxMin(c, fs, opts)
		case "relative":
			demands, err := p.Canon.DemandVec()
			if err != nil {
				return nil, err
			}
			if demands == nil {
				return nil, errors.New("objective \"relative\" needs scenario demands as targets")
			}
			rel, err := search.RelativeMaxMin(c, fs, demands, opts)
			if err != nil {
				return nil, err
			}
			res = &search.Result{Assignment: rel.Assignment, Allocation: rel.Allocation, States: rel.States}
			minRatio = rel.MinRatio
		}
		if err != nil {
			return nil, err
		}
		return codec.SearchBody(&p.Hash, objective, pruned, res.Assignment, codec.Rates{Big: res.Allocation}, minRatio, res.States), nil
	}
}

// computeDoom answers the doom op: Algorithm 1's routing and its
// max-min fair allocation, in canonical flow order, filled the way
// evaluate fills.
func computeDoom(ctx context.Context, e *Engine, p *Prepared) ([]byte, error) {
	c, fs, err := e.fabric(p.Canon)
	if err != nil {
		return nil, err
	}
	sp, ctx := obs.StartSpan(ctx, "doom.route")
	res, err := doom.RouteCtx(ctx, c, fs, doom.LeastLoaded(), e.opts.Obs)
	sp.End()
	if err != nil {
		return nil, err
	}
	return fill(ctx, e, p, res.Assignment, func(rates codec.Rates) []byte {
		return codec.DoomBody(&p.Hash, res.Assignment, res.DoomMiddle, res.MatchedCount(), rates)
	})
}
