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
	f, err := canonicalize(s, false)
	return f.Scenario, err
}

// CanonicalForm is the outcome of one canonicalization pass.
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
	return canonicalize(s, true)
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

// canonicalize is the one canonicalization pass behind every exported
// entry point: validate, normalize the demands, sort the flows, build
// the canonical form, and, when hash is set, hash both addresses.
func canonicalize(s *Scenario, hash bool) (CanonicalForm, error) {
	if err := s.validate(); err != nil {
		return CanonicalForm{}, err
	}
	var demands []string
	if s.Demands != nil {
		demands = make([]string, len(s.Demands))
		for fi, str := range s.Demands {
			d, err := normDemand(str)
			if err != nil {
				return CanonicalForm{}, fmt.Errorf("codec: flow %d demand %q %v", fi, str, err)
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
		case len(s.Assignment) > 0:
			return cmp.Compare(s.Assignment[a], s.Assignment[b])
		}
		return 0
	}
	sorted := slices.IsSortedFunc(perm, order)
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
	if s.Assignment != nil {
		c.Assignment = make([]int, n)
		for i, fi := range perm {
			c.Assignment[i] = s.Assignment[fi]
		}
	}
	f := CanonicalForm{Scenario: c, Perm: perm}
	if hash {
		f.Hash, f.TopoHash = hashCanonical(c)
	}
	return f, nil
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

// hashCanonical hashes both addresses of a canonical scenario from its
// streamed encoding: the topology preimage is the content preimage cut
// after the flow list, closed with '}'. When a string would need
// escaping (never for a validated canonical form: its only strings are
// a known family name and normalized demands), it falls back to
// json.Marshal, whose output the encoder reproduces.
func hashCanonical(c *Scenario) (sum, topo [32]byte) {
	e := getEncoder()
	defer putEncoder(e)
	e.head(c)
	e.fork()
	e.topo.Write(closeBrace)
	topo = e.sum(e.topo)
	e.tail(c)
	e.flush(0)
	sum = e.sum(e.h)
	if !e.ok {
		return marshalHashes(c)
	}
	return sum, topo
}

// marshalHashes is hashCanonical by json.Marshal.
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
