package codec

import (
	"cmp"
	"fmt"
	"slices"
)

// oracleCanonicalize is the one-pass canonicalization the canonical
// prefix replaced, kept as the oracle of FuzzCanonicalizeBatch: validate,
// normalize the demands, sort the flows by the full key (endpoints,
// demand, assignment) in one stable sort, build the canonical form and
// hash both addresses from one streamed encoding.
func oracleCanonicalize(s *Scenario) (CanonicalForm, error) {
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
			return cmpDemands(demands[a], demands[b])
		case len(s.Assignment) > 0:
			return cmp.Compare(s.Assignment[a], s.Assignment[b])
		}
		return 0
	}
	slices.SortStableFunc(perm, order)

	c := &Scenario{
		Topology: s.Topology,
		Tors:     s.Tors,
		Servers:  s.Servers,
		Middles:  s.Middles,
		Flows:    make([]FlowJSON, n),
	}
	if c.Topology == "clos" {
		c.Topology = ""
	}
	for i, fi := range perm {
		c.Flows[i] = s.Flows[fi]
	}
	if demands != nil {
		c.Demands = make([]string, n)
		for i, fi := range perm {
			c.Demands[i] = demands[fi]
		}
	}
	if s.Assignment != nil {
		c.Assignment = make([]int, n)
		for i, fi := range perm {
			c.Assignment[i] = s.Assignment[fi]
		}
	}
	f := CanonicalForm{Scenario: c, Perm: perm}
	f.Hash, f.TopoHash = oracleHashes(c)
	return f, nil
}

// oracleHashes hashes both addresses of a canonical scenario from one
// streamed encoding: the topology preimage is the content preimage cut
// after the flow list, closed with '}'.
func oracleHashes(c *Scenario) (sum, topo [32]byte) {
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

// tail writes the fields after the flow list and the closing '}'.
func (e *encoder) tail(s *Scenario) {
	e.demands(s)
	e.assignment(s)
}
