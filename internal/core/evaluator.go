package core

import (
	"closnet/internal/obs"
	"closnet/internal/topology"
)

// Evaluator amortizes ClosMaxMinFair across many middle assignments of
// one fixed (Fabric, Collection) pair: it is a BlockEvaluator run one
// state at a time, its result materialized as a retainable Allocation
// (ForceBig and Promotions are the block's). An Evaluator is NOT safe
// for concurrent use.
type Evaluator struct {
	*BlockEvaluator

	// Observability handles (see Instrument); the block's own stay nil.
	cFills      *obs.Counter
	cFast       *obs.Counter
	cPromotions *obs.Counter
	cReuses     *obs.Counter
	jour        *obs.Journal
	used        bool // true after the first Eval (scratch-reuse tracking)
}

// NewEvaluator prepares repeated max-min fair evaluations of fs over c.
// It fails if any flow endpoint is not a server of c.
func NewEvaluator(c topology.Fabric, fs Collection) (*Evaluator, error) {
	b, err := NewBlockEvaluator(c, fs)
	if err != nil {
		return nil, err
	}
	return &Evaluator{BlockEvaluator: b}, nil
}

// Instrument attaches the observability layer: fills, fast-path
// completions, big.Rat promotions and scratch reuses land in o's
// registry (shared by name across evaluators), and each promotion
// journals a core.promotion event. A nil o leaves it uninstrumented.
func (e *Evaluator) Instrument(o *obs.Obs) {
	reg := o.Registry()
	e.cFills = reg.Counter("core.eval.fills")
	e.cFast = reg.Counter("core.eval.fast")
	e.cPromotions = reg.Counter("core.eval.promotions")
	e.cReuses = reg.Counter("core.eval.scratch_reuses")
	e.jour = o.Journal()
}

// Eval computes the max-min fair allocation of the collection under
// ma, identical to ClosMaxMinFair(c, fs, ma), as a retainable vector.
func (e *Evaluator) Eval(ma MiddleAssignment) (Allocation, error) {
	before := e.promotions
	res, err := e.EvalBlock(ma, 1)
	if err != nil {
		return nil, err
	}
	e.cFills.Inc()
	if e.used {
		e.cReuses.Inc()
	}
	e.used = true
	switch {
	case e.promotions > before:
		e.cPromotions.Inc()
		e.jour.Emit("core.promotion", obs.F{"promotions": e.promotions})
	case !res.Promoted(0):
		e.cFast.Inc()
	}
	return res.Alloc(0), nil
}
