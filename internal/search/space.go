// The ranked routing space.
//
// Both routing objectives — and indeed the entire max-min fair
// allocation, flow by flow — are invariant under permuting the middle
// switches: relabeling middles is an automorphism of C_n (every middle
// connects identically to every ToR with unit capacity), so an
// assignment and its relabeled images induce isomorphic link-sharing
// structures and therefore the same unique max-min fair allocation.
// It suffices to evaluate one representative per relabeling orbit.
//
// The representative chosen is the orbit element of minimum enumeration
// rank. Rank order reads an assignment as a base-n numeral with
// position 0 least significant, i.e. it compares the digit string
// s[j] = ma[|F|-1-j] lexicographically. Minimizing s over all
// relabelings is the classic canonical set-partition encoding: s is a
// restricted-growth string (RGS) — s[0] = 1 and each later digit is at
// most one more than the running maximum — capped at n distinct labels.
// Enumerating exactly the RGS strings in lexicographic order therefore
// visits orbit representatives in ascending full-space rank, and the
// first canonical state attaining the optimum is the min-rank optimal
// assignment of the whole space: the canonical incumbent is
// bit-identical to the one a full-space scan reports.
//
// The state count drops from n^|F| to the partial Bell sum
// Σ_{k≤n} S(|F|, k) (Stirling numbers of the second kind) — a
// factorial-scale reduction that makes n = 7–8 exhaustively enumerable.
//
// The full space (fabrics without interchangeable choices, or
// Options.FullSpace) is the same lexicographic order with every digit
// free, so one type ranks both: they differ only in the largest digit
// allowed after a prefix, and one suffix-count table and one cursor
// serve the scan and the branch-and-bound alike.
package search

import (
	"fmt"

	"closnet/internal/core"
)

// space ranks the digit strings of length numFlows over [1, n] in
// lexicographic order: every string in the full space, the
// restricted-growth strings in the canonical one. counts[r][m] is the
// number of suffixes of length r that may follow a prefix whose
// running maximum is m (m = 0 for the empty prefix) — the block sizes
// of the rank decomposition — so the space holds counts[numFlows][0]
// states.
type space struct {
	n, numFlows int
	canonical   bool
	counts      [][]int
}

// newSpace precomputes the suffix-count table. It fails when the space
// exceeds maxStates; the cap applies to the states actually enumerated,
// so instances whose full space overflows the cap remain searchable as
// long as their canonical space fits. The full space is checked before
// the table is built.
func newSpace(n, numFlows int, canonical bool, maxStates int) (*space, error) {
	if !canonical && stateCount(n, numFlows, maxStates) < 0 {
		return nil, fmt.Errorf("%w: %d^%d > %d", ErrTooManyStates, n, numFlows, maxStates)
	}
	s := &space{n: n, numFlows: numFlows, canonical: canonical, counts: make([][]int, numFlows+1)}
	for r := range s.counts {
		s.counts[r] = make([]int, n+1)
	}
	for m := range s.counts[0] {
		s.counts[0][m] = 1
	}
	// Entries are saturated at maxStates+1: every entry the rank
	// decomposition can read counts a subset of a space that is checked
	// to be ≤ maxStates, so saturation only ever affects unreachable
	// table slots (prefix maxima larger than the prefix length allows).
	sat := maxStates + 1
	add := func(a, b int) int { return min(a+b, sat) }
	for r := 1; r <= numFlows; r++ {
		prev, row := s.counts[r-1], s.counts[r]
		// A next digit d ≤ m keeps the running maximum (m choices); a
		// digit m < d ≤ limit(m) raises it to d. tail sums the counts
		// of the raising digits: d = m+1 alone in the canonical space,
		// every d in (m, n] in the full one.
		tail := 0
		for m := n; m >= 0; m-- {
			keep := sat
			if m == 0 || prev[m] <= sat/m {
				keep = min(m*prev[m], sat)
			}
			row[m] = add(keep, tail)
			if canonical {
				tail = prev[m]
			} else {
				tail = add(tail, prev[m])
			}
		}
	}
	if s.total() >= sat {
		return nil, fmt.Errorf("%w: canonical space of %d flows in C_%d > %d",
			ErrTooManyStates, numFlows, n, maxStates)
	}
	return s, nil
}

// stateCount returns n^flows, or -1 on overflow past cap.
func stateCount(n, flows, cap int) int {
	count := 1
	for i := 0; i < flows; i++ {
		count *= n
		if count > cap || count <= 0 {
			return -1
		}
	}
	return count
}

func (s *space) total() int { return s.counts[s.numFlows][0] }

// limit returns the largest digit that may follow a prefix whose
// running maximum is m: the RGS growth rule in the canonical space, n
// in the full one.
func (s *space) limit(m int) int {
	if s.canonical && m < s.n {
		return m + 1
	}
	return s.n
}

// cursor walks the space in rank order. digits holds the digit string s
// (digits[j] = ma[numFlows-1-j]), maxes[j] the running maximum of
// digits[0..j]; ma is the caller's assignment buffer, kept in sync.
type cursor struct {
	s      *space
	digits []int
	maxes  []int
	ma     core.MiddleAssignment
}

// seek positions a new cursor at rank, writing the rank's assignment
// into ma. rank must be in [0, total()).
func (s *space) seek(rank int, ma core.MiddleAssignment) *cursor {
	c := &cursor{s: s, digits: make([]int, s.numFlows), maxes: make([]int, s.numFlows), ma: ma}
	for j := range c.digits {
		m := c.prefixMax(j)
		for d := 1; d <= s.limit(m); d++ {
			if block := s.counts[s.numFlows-1-j][max(m, d)]; rank >= block {
				rank -= block
				continue
			}
			c.digits[j], c.maxes[j] = d, max(m, d)
			break
		}
	}
	c.write(0)
	return c
}

// prefixMax returns the running maximum of digits[:j] (0 when empty).
func (c *cursor) prefixMax(j int) int {
	if j == 0 {
		return 0
	}
	return c.maxes[j-1]
}

// advance steps to the successor string (the next rank). Advancing the
// last state wraps to rank 0; callers bound their loops by rank, so the
// wrap is never observed.
func (c *cursor) advance() {
	j := len(c.digits) - 1
	for ; j >= 0 && c.digits[j] == c.s.limit(c.prefixMax(j)); j-- {
		c.digits[j] = 1
	}
	from := max(j, 0)
	if j >= 0 {
		c.digits[j]++
	}
	for k := from; k < len(c.digits); k++ {
		c.maxes[k] = max(c.prefixMax(k), c.digits[k])
	}
	c.write(from)
}

// write copies digits[from:] into ma, the positions they changed.
func (c *cursor) write(from int) {
	nf := len(c.digits)
	for j := from; j < nf; j++ {
		c.ma[nf-1-j] = c.digits[j]
	}
}
