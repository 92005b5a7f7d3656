package engine

import (
	"context"
	"encoding/hex"
	"errors"

	"closnet/internal/codec"
	"closnet/internal/core"
	"closnet/internal/doom"
	"closnet/internal/obs"
	"closnet/internal/rational"
	"closnet/internal/search"
)

// evalResponse is the evaluate op's schema: the max-min fair allocation
// of the canonical scenario under its embedded routing (uniform middle
// 1 when absent), in canonical flow order.
type evalResponse struct {
	Hash       string   `json:"hash"`
	Flows      int      `json:"flows"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
}

func computeEvaluate(ctx context.Context, e *Engine, p *Prepared) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Requests sharing a topology hash share one prepared block
	// evaluator: a pool hit skips the flows' lane resolution entirely,
	// and only the assignment below varies.
	canon := p.Canon
	bev, put, err := e.evals.acquire(p.TopoHash, canon, e.opts.Obs)
	if err != nil {
		return nil, err
	}
	defer put()
	ma := core.MiddleAssignment(canon.Assignment)
	if ma == nil {
		ma = core.UniformAssignment(len(canon.Flows), 1)
	}
	sp, _ := obs.StartSpan(ctx, "core.block_fill")
	res, err := bev.EvalBlock(ma, 1)
	sp.Attr("block", 1).End()
	if err != nil {
		return nil, err
	}
	a := res.Alloc(0)
	resp := evalResponse{
		Hash:       hex.EncodeToString(p.Hash[:]),
		Flows:      len(canon.Flows),
		Assignment: []int(ma),
		Rates:      codec.RateStrings(a),
		Throughput: rational.String(core.Throughput(a)),
	}
	return codec.MarshalBody(resp)
}

// searchResponse is the search:* ops' schema: the optimal routing under
// the requested objective, in canonical flow order. The assignment and
// rates of a :pruned op are bit-identical to the exhaustive op's; the
// strategy marker and the states count (bound plus leaf evaluations
// instead of enumerated states) are what distinguish the bodies.
type searchResponse struct {
	Hash       string   `json:"hash"`
	Objective  string   `json:"objective"`
	Strategy   string   `json:"strategy,omitempty"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
	MinRatio   string   `json:"minRatio,omitempty"`
	States     int      `json:"states"`
}

// searchOp builds the compute function of one search objective, in the
// exhaustive or the pruned branch-and-bound strategy. The search:*
// registry entries are instances of this closure, so adding an
// objective is one constructor call in New.
func searchOp(objective string, pruned bool) computeFunc {
	return func(ctx context.Context, e *Engine, p *Prepared) ([]byte, error) {
		c, fs, err := e.fabric(p.Canon)
		if err != nil {
			return nil, err
		}
		opts := e.SearchOptions(ctx)
		opts.Pruned = pruned
		resp := searchResponse{Hash: hex.EncodeToString(p.Hash[:]), Objective: objective}
		if pruned {
			resp.Strategy = "pruned"
		}
		switch objective {
		case "lex":
			res, err := search.LexMaxMin(c, fs, opts)
			if err != nil {
				return nil, err
			}
			resp.Assignment, resp.Rates = []int(res.Assignment), codec.RateStrings(res.Allocation)
			resp.Throughput = rational.String(core.Throughput(res.Allocation))
			resp.States = res.States
		case "throughput":
			res, err := search.ThroughputMaxMin(c, fs, opts)
			if err != nil {
				return nil, err
			}
			resp.Assignment, resp.Rates = []int(res.Assignment), codec.RateStrings(res.Allocation)
			resp.Throughput = rational.String(core.Throughput(res.Allocation))
			resp.States = res.States
		case "relative":
			demands, err := p.Canon.DemandVec()
			if err != nil {
				return nil, err
			}
			if demands == nil {
				return nil, errors.New("objective \"relative\" needs scenario demands as targets")
			}
			res, err := search.RelativeMaxMin(c, fs, demands, opts)
			if err != nil {
				return nil, err
			}
			resp.Assignment, resp.Rates = []int(res.Assignment), codec.RateStrings(res.Allocation)
			resp.Throughput = rational.String(core.Throughput(res.Allocation))
			resp.MinRatio = rational.String(res.MinRatio)
			resp.States = res.States
		}
		return codec.MarshalBody(resp)
	}
}

// doomResponse is the doom op's schema: Algorithm 1's routing and its
// max-min fair allocation, in canonical flow order.
type doomResponse struct {
	Hash       string   `json:"hash"`
	Assignment []int    `json:"assignment"`
	DoomMiddle int      `json:"doomMiddle"`
	Matched    int      `json:"matched"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
}

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
	a, err := core.ClosMaxMinFairCtx(ctx, c, fs, res.Assignment)
	if err != nil {
		return nil, err
	}
	resp := doomResponse{
		Hash:       hex.EncodeToString(p.Hash[:]),
		Assignment: []int(res.Assignment),
		DoomMiddle: res.DoomMiddle,
		Matched:    res.MatchedCount(),
		Rates:      codec.RateStrings(a),
		Throughput: rational.String(core.Throughput(a)),
	}
	return codec.MarshalBody(resp)
}
