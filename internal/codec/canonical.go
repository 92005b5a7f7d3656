package codec

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Canonical returns the canonical form of a scenario: the unique
// representative of every scenario that denotes the same problem
// instance. Two scenarios that differ only in flow order, in the
// textual representation of their demand strings ("2/4" vs "1/2") or
// in their display name canonicalize to the same value, so the
// canonical form is a content-address for the instance — the cache key
// of the serving layer (internal/server) and the preimage of Hash.
//
// Canonicalization (the input is not mutated):
//
//   - the Name is dropped (a label, not part of the instance),
//   - every demand string is normalized to big.Rat.RatString form
//     (lowest terms, no denominator when it is 1),
//   - flows are sorted by (srcSwitch, srcServer, dstSwitch, dstServer,
//     demand, assignment), with demands and assignment permuted in
//     parallel so each flow keeps its own demand and middle switch.
//
// The routing symmetry of the search layer (relabeling middle
// switches) is deliberately NOT quotiented out: an assignment is part
// of the instance as stated, and evaluation results are reported in
// canonical flow order.
func Canonical(s *Scenario) (*Scenario, error) {
	var z canonicalizer
	f, err := z.canonicalize(s, nil, false)
	return f.Scenario, err
}

// CanonicalForm is the outcome of one canonicalization pass.
//
// The forms CanonicalizeBatch returns for consecutive scenarios with
// one canonical prefix share their Scenario's Flows and Demands, and
// their Perm when no two flows tie on endpoints and demand: treat all
// three as read-only.
type CanonicalForm struct {
	// Scenario is the canonical form (Canonical).
	Scenario *Scenario
	// Perm is the permutation applied to the flow list: Perm[i] is the
	// index in the input of the i-th canonical flow. Callers that track
	// per-flow state by original position (the session layer of
	// internal/engine) use it to report in canonical order.
	Perm []int
	// Hash is the content address (CanonicalHash).
	Hash [32]byte
	// TopoHash is the topology address (TopologyHash).
	TopoHash [32]byte
}

// Canonicalize validates and canonicalizes s once and returns the
// canonical form, its permutation and both addresses, hashed from one
// encoding of the canonical form.
func Canonicalize(s *Scenario) (CanonicalForm, error) {
	var z canonicalizer
	return z.canonicalize(s, nil, true)
}

// CanonicalizeBatch canonicalizes the scenarios in order: slot i holds
// Canonicalize(ss[i])'s form or error. A scenario with the shape, flows
// and demands of the one before it (the same family spelling, equal
// flow lists, equal demand strings; the name may differ) starts from
// that one's canonical prefix — everything the content hash covers
// except the assignment — and only sorts its assignment into the runs
// of identical flows and hashes its assignment. The forms that share a
// prefix share its slices (see CanonicalForm). Every scenario must be
// non-nil.
func CanonicalizeBatch(ss []*Scenario) ([]CanonicalForm, []error) {
	forms := make([]CanonicalForm, len(ss))
	errs := make([]error, len(ss))
	var z canonicalizer
	for i, s := range ss {
		var next *Scenario
		if i+1 < len(ss) {
			next = ss[i+1]
		}
		forms[i], errs[i] = z.canonicalize(s, next, true)
	}
	return forms, errs
}

// Hash returns the SHA-256 content address of the scenario: the hash
// of the compact JSON encoding of its canonical form. Semantically
// equal scenarios — same instance up to flow order, demand-string
// representation and name — hash equal; any change to the shape, the
// flows, a demand value or the assignment changes the hash.
func (s *Scenario) Hash() ([32]byte, error) {
	_, sum, err := CanonicalHash(s)
	return sum, err
}

// CanonicalHash canonicalizes s once and returns both the canonical
// form and its content address (Canonicalize's Scenario and Hash).
func CanonicalHash(s *Scenario) (*Scenario, [32]byte, error) {
	f, err := Canonicalize(s)
	return f.Scenario, f.Hash, err
}

// TopologyHash returns the SHA-256 address of the scenario's topology:
// the shape (tors, servers, middles) plus the canonically ordered flow
// list, with the name, demands and assignment stripped. Scenarios that
// share a topology hash build the identical (Fabric, Collection) pair
// from Canonical(s).Build(), so evaluator state prepared for one can
// evaluate any assignment of the other — the key of the serving
// layer's shared-evaluator pool (internal/engine).
//
// Ties in the canonical flow sort that are broken by demand or
// assignment only occur between flows identical in all four endpoint
// indices, so the projected (src, dst) sequence — all the evaluator
// sees — is uniquely determined by the hashed value: equal hashes can
// never alias two different flow collections.
func TopologyHash(s *Scenario) ([32]byte, error) {
	f, err := Canonicalize(s)
	return f.TopoHash, err
}

// canonicalizer is the one canonicalization pass behind every exported
// entry point, run over a sequence of scenarios: one for Canonicalize,
// a batch for CanonicalizeBatch. Each call looks one scenario ahead:
// when the next scenario shares the current one's canonical prefix
// (sharesPrefix), the prefix is kept and the next call starts from it.
//
// Sharing is exact. The content preimage is the topology preimage (the
// shape and the sorted flows), then the demands, then the assignment.
// Identical flows encode identically, and so do equal normalized
// demands, so neither the bytes through the demands nor the SHA-256
// state after them depend on how ties are broken. And a stable sort by
// the full key (endpoints, demand, assignment) equals a stable sort by
// (endpoints, demand) followed by a stable sort by assignment within
// each run of identical (flow, demand) pairs: that is how every
// scenario is sorted, the prefix's sort done once for all that share
// it.
type canonicalizer struct {
	p prefix
	// kept reports that p is the prefix of the scenario the next call
	// canonicalizes.
	kept bool
}

// prefix is a scenario's canonical prefix: everything its content hash
// covers except the assignment.
type prefix struct {
	// c is the canonical form of the scenario the prefix was built for:
	// its shape, sorted flows and normalized, permuted demands are the
	// prefix, and a scenario that reuses the prefix copies them.
	c *Scenario
	// perm sorts the flows by (endpoints, demand); when ties is set, each
	// scenario still sorts the runs of identical (flow, demand) pairs by
	// assignment.
	perm []int
	ties bool
	// topo is the topology address.
	topo [32]byte
	// state is the SHA-256 state of the content preimage after the
	// demands, saved only when the prefix is kept.
	state []byte
}

// canonicalize validates and canonicalizes s, starting from the kept
// prefix when there is one, and keeps s's prefix when next shares it.
// With hash unset it leaves both addresses zero.
func (z *canonicalizer) canonicalize(s, next *Scenario, hash bool) (CanonicalForm, error) {
	reuse := z.kept
	keep := next != nil && sharesPrefix(s, next)
	z.kept = false
	// A reused prefix was validated with the scenario it came from, so
	// of s's checks only the assignment's can fail, in the message the
	// full validation would give.
	var err error
	if reuse {
		err = s.validateAssignment()
	} else {
		err = s.validate()
	}
	if err != nil {
		z.kept = reuse && keep
		return CanonicalForm{}, err
	}
	p := &z.p
	if !reuse {
		if err := p.build(s); err != nil {
			return CanonicalForm{}, err
		}
	}
	c := p.c
	if reuse {
		// The prefix's form with s's assignment in place of its own.
		shared := *p.c
		shared.Assignment = nil
		c = &shared
	}
	f := CanonicalForm{Scenario: c, Perm: p.perm}
	if s.Assignment != nil {
		if p.ties {
			f.Perm = sortTies(c, f.Perm, s.Assignment, reuse || keep)
		}
		c.Assignment = make([]int, len(f.Perm))
		for i, fi := range f.Perm {
			c.Assignment[i] = s.Assignment[fi]
		}
	}
	if hash {
		f.Hash, f.TopoHash = z.hashes(c, reuse, keep)
		z.kept = keep && p.state != nil
	}
	return f, nil
}

// sharesPrefix reports whether b spells a's canonical prefix the same
// way: the same family spelling and shape, equal flow lists and equal
// demand strings. The name is not compared, since the canonical form
// drops it; respellings ("2/4" for "1/2", "clos" for "") do not share
// and are canonicalized on their own.
func sharesPrefix(a, b *Scenario) bool {
	return a.Topology == b.Topology && a.Tors == b.Tors && a.Servers == b.Servers && a.Middles == b.Middles &&
		slices.Equal(a.Flows, b.Flows) &&
		(a.Demands == nil) == (b.Demands == nil) && slices.Equal(a.Demands, b.Demands)
}

// build computes the canonical prefix of a validated scenario:
// normalize the demands, sort the flows by (endpoints, demand), and
// permute flows and demands into that order.
func (p *prefix) build(s *Scenario) error {
	var demands []string
	if s.Demands != nil {
		demands = make([]string, len(s.Demands))
		for fi, str := range s.Demands {
			d, err := normDemand(str)
			if err != nil {
				return fmt.Errorf("codec: flow %d demand %q %v", fi, str, err)
			}
			demands[fi] = d
		}
	}

	n := len(s.Flows)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	order := func(a, b int) int {
		fa, fb := &s.Flows[a], &s.Flows[b]
		switch {
		case fa.SrcSwitch != fb.SrcSwitch:
			return cmp.Compare(fa.SrcSwitch, fb.SrcSwitch)
		case fa.SrcServer != fb.SrcServer:
			return cmp.Compare(fa.SrcServer, fb.SrcServer)
		case fa.DstSwitch != fb.DstSwitch:
			return cmp.Compare(fa.DstSwitch, fb.DstSwitch)
		case fa.DstServer != fb.DstServer:
			return cmp.Compare(fa.DstServer, fb.DstServer)
		case len(demands) > 0 && demands[a] != demands[b]:
			// Normalized spellings are equal exactly when the values are,
			// but "2" vs "11" must order as rationals, not as text.
			return cmpDemands(demands[a], demands[b])
		}
		return 0
	}
	// One pass checks the order and finds ties: order is 0 exactly for
	// identical (flow, demand) pairs.
	sorted, ties := true, false
	for i := 1; i < n && sorted; i++ {
		o := order(i-1, i)
		sorted, ties = o <= 0, ties || o == 0
	}
	if !sorted {
		slices.SortStableFunc(perm, order)
	}

	c := &Scenario{
		Topology: s.Topology,
		Tors:     s.Tors,
		Servers:  s.Servers,
		Middles:  s.Middles,
		Flows:    make([]FlowJSON, n),
	}
	// "clos" and "" denote the same family; the canonical form uses the
	// empty spelling so pre-family content addresses are preserved.
	if c.Topology == "clos" {
		c.Topology = ""
	}
	for i, fi := range perm {
		c.Flows[i] = s.Flows[fi]
	}
	if demands != nil {
		c.Demands = demands
		if !sorted {
			c.Demands = make([]string, n)
			for i, fi := range perm {
				c.Demands[i] = demands[fi]
			}
		}
	}
	if !sorted {
		ties = false
		for i := 1; i < n && !ties; i++ {
			ties = sameFlow(c, i-1, i)
		}
	}
	*p = prefix{c: c, perm: perm, ties: ties}
	return nil
}

// sameFlow reports whether canonical flows i and j are identical (flow,
// demand) pairs.
func sameFlow(c *Scenario, i, j int) bool {
	return c.Flows[i] == c.Flows[j] && (c.Demands == nil || c.Demands[i] == c.Demands[j])
}

// sortTies sorts every run of perm whose flows and demands in c are
// identical by assignment, stably, and returns perm, copied first when
// shared is set and some run needs sorting.
func sortTies(c *Scenario, perm, assignment []int, shared bool) []int {
	byMiddle := func(a, b int) int { return cmp.Compare(assignment[a], assignment[b]) }
	for lo := 0; lo < len(perm); {
		hi := lo + 1
		for hi < len(perm) && sameFlow(c, lo, hi) {
			hi++
		}
		if hi-lo > 1 && !slices.IsSortedFunc(perm[lo:hi], byMiddle) {
			if shared {
				perm, shared = slices.Clone(perm), false
			}
			slices.SortStableFunc(perm[lo:hi], byMiddle)
		}
		lo = hi
	}
	return perm
}

// hashes returns both addresses of c, the canonical form built on z's
// prefix, from its streamed encoding: the topology preimage is the
// content preimage cut after the flow list, closed with '}'. A reused
// prefix contributes its topology address and its saved state, so only
// the assignment is hashed; keep saves the state after the demands for
// the next scenario. When a string would need escaping (never for a
// validated canonical form: its only strings are a known family name
// and normalized demands), it falls back to json.Marshal, whose output
// the encoder reproduces.
func (z *canonicalizer) hashes(c *Scenario, reuse, keep bool) (sum, topo [32]byte) {
	p := &z.p
	e := getEncoder()
	defer putEncoder(e)
	if reuse && e.restore(p.state) {
		e.assignment(c)
		e.flush(0)
		return e.sum(e.h), p.topo
	}
	e.head(c)
	e.fork()
	e.topo.Write(closeBrace)
	topo = e.sum(e.topo)
	e.demands(c)
	if keep {
		p.topo, p.state = topo, e.save()
	}
	e.assignment(c)
	e.flush(0)
	sum = e.sum(e.h)
	if !e.ok {
		return marshalHashes(c)
	}
	return sum, topo
}

// normDemand returns the canonical spelling of a demand: big.Rat's
// RatString. A plain p or p/q (no sign, no leading zero, int64 terms,
// q > 0) is reduced in integers; every other spelling goes through
// big.Rat, whose reading is the definition. Leading zeros must take
// that path: big.Rat reads a fraction's terms with base prefixes, so
// "010/3" is 8/3, while "010" is the decimal 10.
func normDemand(str string) (string, error) {
	if p, q, ok := parseRat64(str); ok {
		g := gcd(p, q)
		if g == 1 && (q != 1 || !strings.Contains(str, "/")) {
			return str, nil // already in lowest terms, spelled canonically
		}
		p, q = p/g, q/g
		var buf [40]byte
		b := strconv.AppendUint(buf[:0], p, 10)
		if q != 1 {
			b = append(b, '/')
			b = strconv.AppendUint(b, q, 10)
		}
		return string(b), nil
	}
	r, ok := new(big.Rat).SetString(str)
	if !ok {
		return "", errNotRational
	}
	if r.Sign() < 0 {
		return "", errNegative
	}
	return r.RatString(), nil
}

// normDemand's errors, completed by canonicalize with the flow and the
// spelling.
var (
	errNotRational = errors.New("is not a rational")
	errNegative    = errors.New("is negative")
)

// parseRat64 parses p or p/q with p matching 0|[1-9][0-9]*, q matching
// [1-9][0-9]*, both at most MaxInt64.
func parseRat64(s string) (p, q uint64, ok bool) {
	num, den, frac := strings.Cut(s, "/")
	if p, ok = parseUint63(num); !ok {
		return 0, 0, false
	}
	if !frac {
		return p, 1, true
	}
	if q, ok = parseUint63(den); !ok || q == 0 {
		return 0, 0, false
	}
	return p, q, true
}

// parseUint63 parses 0|[1-9][0-9]* up to MaxInt64.
func parseUint63(s string) (uint64, bool) {
	if s == "" || (s[0] == '0' && len(s) > 1) {
		return 0, false
	}
	var u uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (1<<63-1-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	return u, true
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// cmpDemands orders two normalized demand spellings by value: in
// 128-bit integers when both parse as int64 terms, in big.Rat
// otherwise.
func cmpDemands(x, y string) int {
	xp, xq, okx := parseRat64(x)
	yp, yq, oky := parseRat64(y)
	if okx && oky {
		// x < y ⇔ xp·yq < yp·xq; both sides are exact in 128 bits.
		lh, ll := bits.Mul64(xp, yq)
		rh, rl := bits.Mul64(yp, xq)
		if c := cmp.Compare(lh, rh); c != 0 {
			return c
		}
		return cmp.Compare(ll, rl)
	}
	rx, _ := new(big.Rat).SetString(x)
	ry, _ := new(big.Rat).SetString(y)
	return rx.Cmp(ry)
}

// marshalHashes is canonicalizer.hashes by json.Marshal.
func marshalHashes(c *Scenario) (sum, topo [32]byte) {
	data, _ := json.Marshal(c) // a Scenario always marshals
	sum = sha256.Sum256(data)
	data, _ = json.Marshal(&Scenario{
		Topology: c.Topology,
		Tors:     c.Tors,
		Servers:  c.Servers,
		Middles:  c.Middles,
		Flows:    c.Flows,
	})
	return sum, sha256.Sum256(data)
}

// LoadFile reads and validates a scenario file — the one JSON-reading
// path of the CLIs. The size caps guard bytes from the network
// (Decode), not files a local user chose, so every scenario the tools
// write reads back; the shape check still applies.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return decodeTrusted(data)
}
