package codec

import (
	"reflect"
	"testing"
)

func TestDecodeDelta(t *testing.T) {
	d, err := DecodeDelta([]byte(`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":2,"dstSwitch":3,"dstServer":1},"middle":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Op != DeltaArrive || d.Flow == nil || d.Flow.SrcServer != 2 || d.Middle != 2 {
		t.Fatalf("decoded %+v", d)
	}
	if _, err := DecodeDelta([]byte(`{"op":"explode"}`)); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := DecodeDelta([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	d, err = DecodeDelta([]byte(`{"op":"depart","id":3}`))
	if err != nil || d.ID != 3 {
		t.Fatalf("depart decode: %+v, %v", d, err)
	}
}

func TestDeltaValidate(t *testing.T) {
	flow := &FlowJSON{SrcSwitch: 1, SrcServer: 1, DstSwitch: 2, DstServer: 2}
	cases := []struct {
		name string
		d    Delta
		ok   bool
	}{
		{"arrive ok", Delta{Op: DeltaArrive, Flow: flow, Middle: 1}, true},
		{"arrive no flow", Delta{Op: DeltaArrive, Middle: 1}, false},
		{"arrive middle 0", Delta{Op: DeltaArrive, Flow: flow}, false},
		{"arrive middle high", Delta{Op: DeltaArrive, Flow: flow, Middle: 3}, false},
		{"arrive bad switch", Delta{Op: DeltaArrive, Flow: &FlowJSON{SrcSwitch: 9, SrcServer: 1, DstSwitch: 1, DstServer: 1}, Middle: 1}, false},
		{"arrive bad server", Delta{Op: DeltaArrive, Flow: &FlowJSON{SrcSwitch: 1, SrcServer: 9, DstSwitch: 1, DstServer: 1}, Middle: 1}, false},
		{"depart ok", Delta{Op: DeltaDepart, ID: 0}, true},
		{"depart negative", Delta{Op: DeltaDepart, ID: -1}, false},
		{"reroute ok", Delta{Op: DeltaReroute, ID: 1, Middle: 2}, true},
		{"reroute middle 0", Delta{Op: DeltaReroute, ID: 1}, false},
		{"reroute negative id", Delta{Op: DeltaReroute, ID: -2, Middle: 1}, false},
		{"unknown op", Delta{Op: "warp"}, false},
	}
	for _, tc := range cases {
		err := tc.d.Validate(4, 2, 2)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid delta accepted", tc.name)
		}
	}
}

// TestCanonicalPermMatchesCanonical: applying Canonicalize's
// permutation to the original flow list must reproduce Canonical's flow
// order, and its addresses must be CanonicalHash's and TopologyHash's.
func TestCanonicalPermMatchesCanonical(t *testing.T) {
	s := &Scenario{
		Tors: 3, Servers: 2, Middles: 3,
		Flows: []FlowJSON{
			{3, 1, 1, 2},
			{1, 2, 2, 1},
			{1, 1, 3, 1},
			{1, 1, 3, 1}, // duplicate: assignment breaks the tie
			{2, 2, 1, 1},
		},
		Assignment: []int{1, 2, 3, 1, 2},
	}
	form, err := Canonicalize(s)
	if err != nil {
		t.Fatal(err)
	}
	perm := form.Perm
	c, hash, err := CanonicalHash(s)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := TopologyHash(s)
	if err != nil {
		t.Fatal(err)
	}
	if form.Hash != hash || form.TopoHash != topo {
		t.Fatal("Canonicalize's addresses differ from CanonicalHash and TopologyHash")
	}
	if !reflect.DeepEqual(form.Scenario, c) {
		t.Fatalf("Canonicalize's form %+v differs from Canonical's %+v", form.Scenario, c)
	}
	if len(perm) != len(s.Flows) {
		t.Fatalf("perm length %d", len(perm))
	}
	for i, fi := range perm {
		if s.Flows[fi] != c.Flows[i] {
			t.Fatalf("perm[%d]=%d: %+v != canonical %+v", i, fi, s.Flows[fi], c.Flows[i])
		}
		if s.Assignment[fi] != c.Assignment[i] {
			t.Fatalf("perm[%d]=%d: assignment %d != canonical %d", i, fi, s.Assignment[fi], c.Assignment[i])
		}
	}
	if _, err := Canonicalize(&Scenario{Tors: 0}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}
