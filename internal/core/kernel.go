package core

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/bits"

	"closnet/internal/rational"
)

// errNoProgress is the internal-invariant error of the filling: a round
// that saturates no lane and freezes no flow.
var errNoProgress = errors.New("waterfill: no progress (internal invariant violated)")

// kernel is the package's one production water filling — the exact
// progressive filling of §2.2 — driven by MaxMinFair and every evaluator
// in the package (ReferenceMaxMinFair, the tests' oracle, is the only
// other filling).
// A driver numbers its finite constraints densely as lanes (ascending
// LinkID order on a real network) and supplies one lane list per flow;
// a fill only visits the touched lanes, in ascending order, so the
// earliest lane wins every tie. A round costs in proportion to its live
// lanes (those still crossed by an unfrozen flow), not to every lane
// the fill has touched.
//
// Every remaining capacity is an int64 numerator remN[j] over one shared
// denominator den, seeded once per kernel as the lcm of the capacity
// denominators (1 on integral fabrics). A round is cross-multiplied
// compares for the min delta remN[j]/act[j] (strict <: the earliest
// lane wins ties), a rescale of den by the bottleneck's active count
// minA, and subtractions — no division and no gcd in the loop. Any
// int64 overflow returns ok=false, never an inexact value; the driver
// then promotes to fillBig, the same filling on *big.Rat over the same
// registered state (also every driver's ForceBig path), so a promotion
// is a lossless re-run.
type kernel struct {
	// The per-lane constants, shared by every kernel over the same lanes.
	capTemplate

	// lanes[f] lists flow f's lanes, on[j] the flows crossing lane j.
	// register builds on from lanes; a driver with a persistent flow
	// table maintains both itself.
	lanes [][]int32
	on    [][]int32

	// Fill state; only touched lanes are read or written. touched lists,
	// ascending, every lane with act > 0, and the lanes the last freeze
	// emptied until the next round's min scan drops them. mark is
	// register's bitset of the lanes it has seen, all zero between calls.
	act         []int32
	touched     []int32
	mark        []uint64
	frozen      []bool
	left        int
	remN        []int64
	den, levelN int64

	// Outcome of the last round: the bottleneck, the level advance
	// minR/(den·minA) over the round's starting den, the new level, the
	// saturated lanes and the flows frozen on them. Between the drain and
	// the freeze, sat holds the drained-to-zero candidates.
	minJ       int32
	minR, minA int64
	level      rational.Rat64
	sat, froze []int32

	remB               []big.Rat // fillBig's scratch, allocated on first use
	delta, tmp, actRat big.Rat
	x, y, a            big.Int
}

// capTemplate holds a kernel's per-lane constants: each capacity as a
// numerator over the shared den0 (fast is false when a capacity or den0
// does not fit) and as a *big.Rat. A fill only reads it, so every
// kernel over the same lanes shares one template.
type capTemplate struct {
	seedN   []int64
	den0    int64
	fast    bool
	capsBig []*big.Rat
}

// newCapTemplate derives the template of lanes with the given
// capacities.
func newCapTemplate(caps []*big.Rat) capTemplate {
	t := capTemplate{seedN: make([]int64, len(caps)), den0: 1, fast: true, capsBig: caps}
	c64 := make([]rational.Rat64, len(caps))
	for j, c := range caps {
		var ok bool
		if c64[j], ok = rational.FromRat(c); ok {
			q := c64[j].Den()
			t.den0, ok = mulNonNeg(t.den0/gcdInt64(t.den0, q), q)
		}
		t.fast = t.fast && ok
	}
	for j := 0; j < len(caps) && t.fast; j++ {
		t.seedN[j], t.fast = mulNonNeg(c64[j].Num(), t.den0/c64[j].Den())
	}
	return t
}

// newKernel allocates a kernel's fill scratch over the template's
// lanes; the template itself is shared, not copied.
func (t *capTemplate) newKernel() *kernel {
	n := len(t.seedN)
	return &kernel{capTemplate: *t, on: make([][]int32, n), act: make([]int32, n),
		touched: make([]int32, 0, n), mark: make([]uint64, (n+63)/64), remN: make([]int64, n)}
}

// register starts a fill of flows 0..len(lanes)-1 over the given lane
// lists, which are retained until the next register. The touched lanes
// come out in ascending order: each first touch sets its bit in mark,
// and only the words between the lowest and the highest marked one are
// scanned, and cleared on the way.
func (k *kernel) register(lanes [][]int32) {
	for _, j := range k.touched {
		k.act[j] = 0
	}
	k.touched = k.touched[:0]
	lo, hi := len(k.mark), -1
	for f, ls := range lanes {
		for _, j := range ls {
			if k.act[j] == 0 {
				w := int(j >> 6)
				k.mark[w] |= 1 << (j & 63)
				lo, hi = min(lo, w), max(hi, w)
				k.on[j] = k.on[j][:0]
			}
			k.act[j]++
			k.on[j] = append(k.on[j], int32(f))
		}
	}
	for w := lo; w <= hi; w++ {
		for m := k.mark[w]; m != 0; m &= m - 1 {
			k.touched = append(k.touched, int32(w<<6+bits.TrailingZeros64(m)))
		}
		k.mark[w] = 0
	}
	k.lanes = lanes
	k.frozen = resize(k.frozen, len(lanes))
	clear(k.frozen)
	k.left = len(lanes)
}

// touchActive rebuilds the touched list as every lane with active flows.
func (k *kernel) touchActive() {
	k.touched = k.touched[:0]
	for j, a := range k.act {
		if a > 0 {
			k.touched = append(k.touched, int32(j))
		}
	}
}

// seed resets the touched lanes and the level to the start of a fill.
func (k *kernel) seed() {
	for _, j := range k.touched {
		k.remN[j] = k.seedN[j]
	}
	k.den, k.levelN = k.den0, 0
}

// fill64 runs the registered fill to completion on the int64 lanes,
// writing flow f's rate to rates[f]; ok is false on overflow.
func (k *kernel) fill64(rates []rational.Rat64) (ok bool, err error) {
	k.seed()
	for k.left > 0 {
		if ok, err := k.round(); !ok || err != nil {
			return ok, err
		}
		for _, f := range k.froze {
			rates[f] = k.level
		}
	}
	return true, nil
}

// round runs one filling round on the int64 lanes in two passes over
// the live lanes. The min scan drops from touched, in place and in
// order, every lane that lost its last active flow, so the drain visits
// live lanes only and the freeze only the lanes the drain brought to
// zero; the round's outcome is that of a scan of every touched lane.
func (k *kernel) round() (ok bool, err error) {
	// delta_j = remN[j]/(den·act[j]); den cancels, so remN[j]/act[j] <
	// minR/minA cross-multiplies to remN[j]·minA < minR·act[j].
	k.minJ = -1
	t, w := k.touched, 0
	for i, j := range t {
		a := int64(k.act[j])
		if a == 0 {
			continue
		}
		t[w] = j
		w++
		if k.minJ >= 0 {
			lhs, ok1 := mulNonNeg(k.remN[j], k.minA)
			rhs, ok2 := mulNonNeg(k.minR, a)
			if !ok1 || !ok2 {
				// Keep the lanes not yet scanned: the next register resets
				// act over touched.
				k.touched = append(t[:w], t[i+1:]...)
				return false, nil
			}
			if lhs >= rhs {
				continue
			}
		}
		k.minJ, k.minR, k.minA = j, k.remN[j], a
	}
	k.touched = t[:w]
	if k.minJ < 0 {
		return true, ErrUnboundedFlow
	}
	// Rescale to the denominator den·minA, under which the level rises by
	// minR and lane j consumes act·minR.
	if k.den, ok = mulNonNeg(k.den, k.minA); !ok {
		return false, nil
	}
	if k.levelN, ok = mulNonNeg(k.levelN, k.minA); !ok || k.levelN > math.MaxInt64-k.minR {
		return false, nil
	}
	k.levelN += k.minR
	if k.level, ok = rational.Make64(k.levelN, k.den); !ok || !k.drain(k.touched, k.minR, k.minA) {
		return false, nil
	}
	return true, k.freeze()
}

// drain applies a level advance minR/(den·minA) to the active lanes
// among lanes: rescale by minA, subtract act·minR. The result is
// non-negative because minR/minA is the minimum delta. The lanes it
// leaves at zero, zero-capacity lanes included, go to sat in the order
// of lanes as the freeze's candidates.
func (k *kernel) drain(lanes []int32, minR, minA int64) bool {
	k.sat = k.sat[:0]
	for _, j := range lanes {
		a := int64(k.act[j])
		if a == 0 {
			continue
		}
		r, ok1 := mulNonNeg(k.remN[j], minA)
		used, ok2 := mulNonNeg(a, minR)
		if !ok1 || !ok2 {
			return false
		}
		if k.remN[j] = r - used; k.remN[j] == 0 {
			k.sat = append(k.sat, j)
		}
	}
	return true
}

// freeze freezes every unfrozen flow crossing a candidate lane in sat
// that still has active flows, keeping in sat only the lanes it froze
// on and recording the flows in froze. A candidate skipped here lost
// its last active flow to an earlier candidate's freeze, exactly as a
// scan of every touched lane with remN == 0 would skip it.
func (k *kernel) freeze() error {
	sat := k.sat[:0]
	k.froze = k.froze[:0]
	for _, j := range k.sat {
		if k.act[j] == 0 {
			continue
		}
		sat = append(sat, j)
		for _, f := range k.on[j] {
			if !k.frozen[f] {
				k.frozen[f] = true
				k.froze = append(k.froze, f)
				for _, l := range k.lanes[f] {
					k.act[l]--
				}
			}
		}
	}
	k.sat = sat
	if k.left -= len(k.froze); len(k.froze) == 0 {
		return errNoProgress
	}
	return nil
}

// fillBig runs the registered fill to completion on *big.Rat, writing
// flow f's rate to rates[f]. It polls ctx once per round and returns
// ctx.Err() when it is done: a promoted fill can run for seconds. The
// scratch a cancelled fill leaves is reset by the next register.
func (k *kernel) fillBig(ctx context.Context, rates []*big.Rat) error {
	k.seedBig()
	level := new(big.Rat)
	for k.left > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := k.roundBig(level); err != nil {
			return err
		}
		at := rational.Copy(level)
		for _, f := range k.froze {
			rates[f] = at
		}
	}
	return nil
}

// seedBig resets the touched lanes' *big.Rat remainders to their
// capacities.
func (k *kernel) seedBig() {
	if k.remB == nil {
		k.remB = make([]big.Rat, len(k.capsBig))
	}
	for _, j := range k.touched {
		k.remB[j].Set(k.capsBig[j])
	}
}

// roundBig runs one filling round on *big.Rat, raising level by its
// delta: round's two passes, with the drain's candidates taken from the
// sign of each remB.
func (k *kernel) roundBig(level *big.Rat) error {
	// With remB = p/q and a active flows, delta = p/(q·a), and
	// d1 < d2 iff p1·q2·a2 < p2·q1·a1: no division per lane.
	k.minJ = -1
	t, w := k.touched, 0
	for _, j := range t {
		if k.act[j] == 0 {
			continue
		}
		t[w] = j
		w++
		if k.minJ >= 0 {
			k.x.Mul(k.remB[j].Num(), k.remB[k.minJ].Denom())
			k.x.Mul(&k.x, k.a.SetInt64(int64(k.act[k.minJ])))
			k.y.Mul(k.remB[k.minJ].Num(), k.remB[j].Denom())
			k.y.Mul(&k.y, k.a.SetInt64(int64(k.act[j])))
			if k.x.Cmp(&k.y) >= 0 {
				continue
			}
		}
		k.minJ = j
	}
	k.touched = t[:w]
	if k.minJ < 0 {
		return ErrUnboundedFlow
	}
	k.delta.Quo(&k.remB[k.minJ], k.actRat.SetInt64(int64(k.act[k.minJ])))
	level.Add(level, &k.delta)
	k.sat = k.sat[:0]
	for _, j := range k.touched {
		k.tmp.Mul(&k.delta, k.actRat.SetInt64(int64(k.act[j])))
		if k.remB[j].Sub(&k.remB[j], &k.tmp).Sign() == 0 {
			k.sat = append(k.sat, j)
		}
	}
	return k.freeze()
}

// solve registers lanes and fills them: on the int64 lanes into rates
// when fast is set, returning a nil Allocation, and otherwise — or on
// overflow — on *big.Rat under ctx, returning the result.
func (k *kernel) solve(ctx context.Context, lanes [][]int32, rates []rational.Rat64, fast bool) (Allocation, error) {
	k.register(lanes)
	if fast {
		if ok, err := k.fill64(rates); ok || err != nil {
			return nil, err
		}
		k.register(lanes)
	}
	a := make(Allocation, len(lanes))
	return a, k.fillBig(ctx, a)
}

// AllocOf materializes a rate lane as a fresh Allocation, sharing one
// *big.Rat among the flows of each distinct level.
func AllocOf(lane []rational.Rat64) Allocation {
	a := make(Allocation, len(lane))
	firsts := make([]int, 0, 16)
	for i, v := range lane {
		for _, f := range firsts {
			if lane[f] == v {
				a[i] = a[f]
				break
			}
		}
		if a[i] == nil {
			a[i] = v.Rat()
			firsts = append(firsts, i)
		}
	}
	return a
}

// mulNonNeg is the overflow-checked product of two non-negative int64s:
// the full 128-bit product must fit in 63 bits.
func mulNonNeg(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// gcdInt64 is Euclid's gcd for a ≥ 0, b > 0.
func gcdInt64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
