// Package codec serializes problem instances — topology shape, flow
// collection, offered demands and routing — as JSON, so that scenarios
// can be saved, replayed and exchanged with external tools. Rates are
// encoded as exact rational strings ("2/3"), never floats.
package codec

import (
	"encoding/json"
	"fmt"
	"math/big"
	"slices"
	"strings"

	"closnet/internal/adversary"
	"closnet/internal/core"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// FlowJSON is one flow, identified by the paper's (i, j) server indices.
type FlowJSON struct {
	SrcSwitch int `json:"srcSwitch"`
	SrcServer int `json:"srcServer"`
	DstSwitch int `json:"dstSwitch"`
	DstServer int `json:"dstServer"`
}

// Scenario is a self-contained problem instance.
type Scenario struct {
	Name string `json:"name,omitempty"`
	// Topology names the fabric family the shape describes (see
	// topology.FamilyNames). Empty means "clos", kept empty in encoded
	// form so pre-family scenario files and their content addresses are
	// unchanged.
	Topology string `json:"topology,omitempty"`
	Tors     int    `json:"tors"`
	Servers  int    `json:"servers"`
	Middles  int    `json:"middles"`

	Flows []FlowJSON `json:"flows"`
	// Demands are exact rational strings, parallel to Flows; optional.
	Demands []string `json:"demands,omitempty"`
	// Assignment is a middle-switch index per flow (1-based); optional.
	Assignment []int `json:"assignment,omitempty"`
}

// FromInstance converts an adversarial instance into a scenario,
// carrying its macro-switch rates as demands and its witness routing (if
// any) as the assignment.
func FromInstance(in *adversary.Instance) (*Scenario, error) {
	s := &Scenario{
		Name:    in.Name,
		Tors:    in.Clos.NumToRs(),
		Servers: in.Clos.ServersPerToR(),
		Middles: in.Clos.Size(),
	}
	for fi, f := range in.Flows {
		si, sj, ok := in.Clos.SourceIndexOf(f.Src)
		if !ok {
			return nil, fmt.Errorf("codec: flow %d source is not a server", fi)
		}
		di, dj, ok := in.Clos.DestIndexOf(f.Dst)
		if !ok {
			return nil, fmt.Errorf("codec: flow %d destination is not a server", fi)
		}
		s.Flows = append(s.Flows, FlowJSON{si, sj, di, dj})
	}
	for _, rate := range in.MacroRates {
		s.Demands = append(s.Demands, rational.String(rate))
	}
	if in.Witness != nil {
		s.Assignment = append([]int(nil), in.Witness...)
	}
	return s, nil
}

// Encode marshals the scenario as indented JSON.
func Encode(s *Scenario) ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return out, nil
}

// Size caps, enforced by Decode so that a small body cannot request a
// huge fabric: every shape field, the fabric's port count tors ×
// (servers + middles), the flow count, and flows × middles, the number
// of paths an evaluator resolves. The demand caps bound a demand's
// spelling and the exponent of one spelled with an e or p exponent,
// which big.Rat.SetString materializes in full: "1e99999999" is ten
// bytes.
const (
	MaxTors        = 1 << 12
	MaxServers     = 1 << 12
	MaxMiddles     = 1 << 12
	MaxFabricPorts = 1 << 16
	MaxFlows       = 1 << 16
	MaxFlowPaths   = 1 << 17
	MaxDemandLen   = 256
	MaxDemandExp   = 1000
)

// Decode unmarshals, structurally validates and size-checks a
// scenario: the entry point for untrusted bytes. Input in the fast
// subset of scan.go is decoded without reflection; everything else
// goes through encoding/json, which produces every decode error. Both
// paths decode the same input to the same value.
func Decode(data []byte) (*Scenario, error) {
	if s, ok := decodeFast(data); ok {
		return checked(s)
	}
	return decodeJSON(data)
}

// decodeJSON is Decode's encoding/json path: the fallback for input
// outside the fast subset, and the fast path's oracle.
func decodeJSON(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return checked(&s)
}

// checked applies Decode's checks to a decoded scenario.
func checked(s *Scenario) (*Scenario, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := s.checkSize(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeTrusted is Decode without the size caps, for bytes a local
// user chose to load: the shape check of validate still applies.
func decodeTrusted(data []byte) (*Scenario, error) {
	s, ok := decodeFast(data)
	if !ok {
		s = new(Scenario)
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkSize enforces the size caps on a validated scenario. The shape
// caps come first, so the products cannot overflow.
func (s *Scenario) checkSize() error {
	switch {
	case s.Tors > MaxTors:
		return fmt.Errorf("codec: %d tors exceed the cap of %d", s.Tors, MaxTors)
	case s.Servers > MaxServers:
		return fmt.Errorf("codec: %d servers exceed the cap of %d", s.Servers, MaxServers)
	case s.Middles > MaxMiddles:
		return fmt.Errorf("codec: %d middles exceed the cap of %d", s.Middles, MaxMiddles)
	case s.Tors*(s.Servers+s.Middles) > MaxFabricPorts:
		return fmt.Errorf("codec: shape (%d, %d, %d) exceeds the cap of %d fabric ports", s.Tors, s.Servers, s.Middles, MaxFabricPorts)
	}
	if err := CheckFlows(len(s.Flows), s.Middles); err != nil {
		return err
	}
	for fi, d := range s.Demands {
		if len(d) > MaxDemandLen {
			return fmt.Errorf("codec: flow %d demand is %d bytes, past the cap of %d", fi, len(d), MaxDemandLen)
		}
		if demandExp(d) > MaxDemandExp {
			return fmt.Errorf("codec: flow %d demand %q has an exponent past the cap of %d", fi, d, MaxDemandExp)
		}
	}
	return nil
}

// CheckFlows enforces the flow caps on a flow set of a size-checked
// shape: at most MaxFlows flows and MaxFlowPaths flows × middles. A
// session checks every arrival against them, as Decode checks a
// scenario.
func CheckFlows(flows, middles int) error {
	switch {
	case flows > MaxFlows:
		return fmt.Errorf("codec: %d flows exceed the cap of %d", flows, MaxFlows)
	case flows*middles > MaxFlowPaths:
		return fmt.Errorf("codec: %d flows over %d middles exceed the cap of %d flow paths", flows, middles, MaxFlowPaths)
	}
	return nil
}

// demandExp returns the magnitude of the exponent of a demand in
// big.Rat's floating-point spelling (after an e or p; a hexadecimal
// mantissa has only p), or 0. A fraction a/b takes no exponent. Digits
// are read past signs and '_' separators, so that every exponent
// big.Rat accepts is counted in full; the count stops once it passes
// the cap.
func demandExp(d string) int {
	if strings.Contains(d, "/") {
		return 0
	}
	m := strings.TrimLeft(d, "+-")
	markers := "eEpP"
	if strings.HasPrefix(m, "0x") || strings.HasPrefix(m, "0X") {
		markers = "pP"
	}
	i := strings.IndexAny(m, markers)
	if i < 0 {
		return 0
	}
	exp := 0
	for j := i + 1; j < len(m) && exp <= MaxDemandExp; j++ {
		if c := m[j]; c >= '0' && c <= '9' {
			exp = exp*10 + int(c-'0')
		}
	}
	return exp
}

// knownFamilies is topology.FamilyNames, computed once.
var knownFamilies = topology.FamilyNames()

func (s *Scenario) validate() error {
	if s.Tors < 1 || s.Servers < 1 || s.Middles < 1 {
		return fmt.Errorf("codec: invalid shape (%d, %d, %d)", s.Tors, s.Servers, s.Middles)
	}
	if s.Topology != "" && !slices.Contains(knownFamilies, s.Topology) {
		return fmt.Errorf("codec: unknown topology family %q", s.Topology)
	}
	if err := topology.CheckShape(s.Topology, s.Tors, s.Servers, s.Middles); err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	for fi, f := range s.Flows {
		if f.SrcSwitch < 1 || f.SrcSwitch > s.Tors || f.DstSwitch < 1 || f.DstSwitch > s.Tors {
			return fmt.Errorf("codec: flow %d switch index out of range", fi)
		}
		if f.SrcServer < 1 || f.SrcServer > s.Servers || f.DstServer < 1 || f.DstServer > s.Servers {
			return fmt.Errorf("codec: flow %d server index out of range", fi)
		}
	}
	if s.Demands != nil && len(s.Demands) != len(s.Flows) {
		return fmt.Errorf("codec: %d demands for %d flows", len(s.Demands), len(s.Flows))
	}
	return s.validateAssignment()
}

// validateAssignment is validate's last check: the assignment, if any,
// names a middle in range for every flow.
func (s *Scenario) validateAssignment() error {
	if s.Assignment == nil {
		return nil
	}
	if len(s.Assignment) != len(s.Flows) {
		return fmt.Errorf("codec: %d assignments for %d flows", len(s.Assignment), len(s.Flows))
	}
	for fi, m := range s.Assignment {
		if m < 1 || m > s.Middles {
			return fmt.Errorf("codec: flow %d middle %d out of range [1,%d]", fi, m, s.Middles)
		}
	}
	return nil
}

// Build materializes the scenario: the fabric of its topology family
// (a Clos when the family is empty), the flow collection, the demands
// (nil if absent) and the assignment (nil if absent).
func (s *Scenario) Build() (topology.Fabric, core.Collection, rational.Vec, core.MiddleAssignment, error) {
	if err := s.validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	c, err := topology.BuildFamily(s.Topology, s.Tors, s.Servers, s.Middles)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	demands, err := s.DemandVec()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var ma core.MiddleAssignment
	if s.Assignment != nil {
		ma = append(core.MiddleAssignment(nil), s.Assignment...)
	}
	return c, s.FlowsOn(c), demands, ma, nil
}

// FlowsOn resolves the scenario's flows on c, a fabric of the
// scenario's family and shape — typically a shared one — reading
// neither demands nor assignment. The scenario must be valid (as every
// canonical scenario is): indices out of c's range panic.
func (s *Scenario) FlowsOn(c topology.Fabric) core.Collection {
	fs := make(core.Collection, len(s.Flows))
	for fi, f := range s.Flows {
		fs[fi] = core.Flow{
			Src: c.Source(f.SrcSwitch, f.SrcServer),
			Dst: c.Dest(f.DstSwitch, f.DstServer),
		}
	}
	return fs
}

// DemandVec parses the demands, or returns nil when there are none.
func (s *Scenario) DemandVec() (rational.Vec, error) {
	if s.Demands == nil {
		return nil, nil
	}
	demands := make(rational.Vec, len(s.Demands))
	for fi, str := range s.Demands {
		r, ok := new(big.Rat).SetString(str)
		if !ok {
			return nil, fmt.Errorf("codec: flow %d demand %q is not a rational", fi, str)
		}
		if r.Sign() < 0 {
			return nil, fmt.Errorf("codec: flow %d demand %q is negative", fi, str)
		}
		demands[fi] = r
	}
	return demands, nil
}
