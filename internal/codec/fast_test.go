package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The differential tests of the fast paths: the scanner against
// json.Unmarshal, the encoder and the hashes against json.Marshal, and
// the demand normalizer against big.Rat.

// subsetSeeds are inputs on both sides of the fast subset's border;
// the comment names the side.
var subsetSeeds = []string{
	`{"tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"demands":["1/2"],"assignment":[2]}`,
	// in: keys in any order, whitespace everywhere, absent flow fields
	" \n{ \"assignment\" : [ 1 ] ,\"flows\":[ {\"dstServer\":1 , \"srcSwitch\":1} ],\t\"middles\":1,\"servers\":1,\"tors\":2 }\r\n",
	// in: empty arrays decode to non-nil empty slices
	`{"tors":1,"servers":1,"middles":1,"flows":[],"demands":[],"assignment":[]}`,
	// in: -0, a name, a topology, the empty object
	`{"name":"theorem-4.2(n=3)","topology":"clos","tors":-0,"servers":1,"middles":1,"flows":[]}`,
	`{}`,
	// in: strings json.Marshal would escape but Unmarshal reads raw
	`{"name":"a<b>&c","tors":1,"servers":1,"middles":1,"flows":[]}`,
	// in: integers at the edge of int
	`{"tors":9223372036854775807,"servers":-9223372036854775808,"middles":1,"flows":[]}`,
	// out: case-folded keys, which encoding/json matches
	`{"Tors":2,"servers":1,"middles":2,"flows":[{"SrcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}]}`,
	// out: duplicate keys
	`{"tors":2,"tors":3,"servers":1,"middles":1,"flows":[]}`,
	`{"tors":2,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcSwitch":2}]}`,
	// out: unknown keys
	`{"tors":2,"servers":1,"middles":1,"flows":[],"comment":"x"}`,
	// out: null values
	`{"tors":2,"servers":1,"middles":1,"flows":null}`,
	`{"name":null,"tors":2,"servers":1,"middles":1,"flows":[]}`,
	`null`,
	// out: leading zeros, fractions, exponents, overflow
	`{"tors":02,"servers":1,"middles":1,"flows":[]}`,
	`{"tors":2.0,"servers":1,"middles":1,"flows":[]}`,
	`{"tors":2e0,"servers":1,"middles":1,"flows":[]}`,
	`{"tors":9223372036854775808,"servers":1,"middles":1,"flows":[]}`,
	`{"tors":-9223372036854775809,"servers":1,"middles":1,"flows":[]}`,
	// out: escapes, non-ASCII and control characters in strings
	`{"name":"café","tors":1,"servers":1,"middles":1,"flows":[]}`,
	`{"name":"caf\u00e9","tors":1,"servers":1,"middles":1,"flows":[]}`,
	"{\"name\":\"tab\there\",\"tors\":1,\"servers\":1,\"middles\":1,\"flows\":[]}",
	`{"demands":["1\/2"],"tors":1,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":1,"dstServer":1}]}`,
	// out: malformed JSON and trailing data
	`{"tors":2,}`,
	`{"tors":2} x`,
	`{"tors":2}{}`,
	`{"flows":[{"srcSwitch":1},]}`,
	`{"tors":"2"}`,
	`[]`,
	``,
}

// FuzzDecodeFastMatchesJSON: whatever the fast path accepts decodes to
// exactly what json.Unmarshal decodes, and Decode returns exactly the
// encoding/json path's scenario or error on every input.
func FuzzDecodeFastMatchesJSON(f *testing.F) {
	for _, s := range subsetSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := decodeFast(data)
		var ref Scenario
		refErr := json.Unmarshal(data, &ref)
		if ok {
			if refErr != nil {
				t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", data, refErr)
			}
			if !reflect.DeepEqual(*fast, ref) {
				t.Fatalf("fast path decoded %q as\n%#v\njson.Unmarshal as\n%#v", data, *fast, ref)
			}
		}
		got, gotErr := Decode(data)
		want, wantErr := decodeJSON(data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%q) = %#v, %v; the encoding/json path gives %#v, %v", data, got, gotErr, want, wantErr)
		}
	})
}

// TestDecodeFastSubsetBorder pins which side of the subset each trap
// lands on, and that the fallback still decodes the ones json accepts.
func TestDecodeFastSubsetBorder(t *testing.T) {
	in := map[string]bool{
		`{"tors":1,"servers":1,"middles":1,"flows":[],"demands":[],"assignment":[]}`: true,
		`{"tors":-0,"servers":1,"middles":1,"flows":[]}`:                             true,
		`{"Tors":1,"servers":1,"middles":1,"flows":[]}`:                              false,
		`{"tors":1,"tors":1,"servers":1,"middles":1,"flows":[]}`:                     false,
		`{"tors":1,"servers":1,"middles":1,"flows":[],"extra":1}`:                    false,
		`{"tors":1,"servers":1,"middles":1,"flows":null}`:                            false,
		`{"tors":01,"servers":1,"middles":1,"flows":[]}`:                             false,
		`{"tors":1.5,"servers":1,"middles":1,"flows":[]}`:                            false,
		`{"tors":1e0,"servers":1,"middles":1,"flows":[]}`:                            false,
		`{"name":"\u00e9","tors":1,"servers":1,"middles":1,"flows":[]}`:              false,
		`{"name":"é","tors":1,"servers":1,"middles":1,"flows":[]}`:                   false,
	}
	for body, want := range in {
		if _, ok := decodeFast([]byte(body)); ok != want {
			t.Errorf("decodeFast(%s): ok = %v, want %v", body, ok, want)
		}
	}
	s, ok := decodeFast([]byte(`{"tors":1,"servers":1,"middles":1,"flows":[],"demands":[],"assignment":[]}`))
	if !ok || s.Flows == nil || s.Demands == nil || s.Assignment == nil {
		t.Errorf("[] must decode to non-nil empty slices, got %#v", s)
	}
	// The fallback reads the case-folded key as encoding/json does.
	s, err := Decode([]byte(`{"Tors":2,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}]}`))
	if err != nil || s.Tors != 2 {
		t.Errorf("case-folded key: %+v, %v", s, err)
	}
}

// refCanonical is the canonicalization the fast one replaced, kept as
// its oracle: big.Rat normalization, sort.SliceStable with big.Rat
// comparisons.
func refCanonical(s *Scenario) (*Scenario, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	demands := make([]string, len(s.Demands))
	for fi, str := range s.Demands {
		r, ok := new(big.Rat).SetString(str)
		if !ok {
			return nil, fmt.Errorf("codec: flow %d demand %q is not a rational", fi, str)
		}
		if r.Sign() < 0 {
			return nil, fmt.Errorf("codec: flow %d demand %q is negative", fi, str)
		}
		demands[fi] = r.RatString()
	}
	perm := make([]int, len(s.Flows))
	for i := range perm {
		perm[i] = i
	}
	less := func(a, b int) bool {
		fa, fb := s.Flows[a], s.Flows[b]
		switch {
		case fa.SrcSwitch != fb.SrcSwitch:
			return fa.SrcSwitch < fb.SrcSwitch
		case fa.SrcServer != fb.SrcServer:
			return fa.SrcServer < fb.SrcServer
		case fa.DstSwitch != fb.DstSwitch:
			return fa.DstSwitch < fb.DstSwitch
		case fa.DstServer != fb.DstServer:
			return fa.DstServer < fb.DstServer
		}
		if len(demands) > 0 && demands[a] != demands[b] {
			ra, _ := new(big.Rat).SetString(demands[a])
			rb, _ := new(big.Rat).SetString(demands[b])
			return ra.Cmp(rb) < 0
		}
		if len(s.Assignment) > 0 && s.Assignment[a] != s.Assignment[b] {
			return s.Assignment[a] < s.Assignment[b]
		}
		return false
	}
	sort.SliceStable(perm, func(i, j int) bool { return less(perm[i], perm[j]) })
	c := &Scenario{Topology: s.Topology, Tors: s.Tors, Servers: s.Servers, Middles: s.Middles}
	if c.Topology == "clos" {
		c.Topology = ""
	}
	c.Flows = make([]FlowJSON, len(s.Flows))
	for i, fi := range perm {
		c.Flows[i] = s.Flows[fi]
	}
	if s.Demands != nil {
		c.Demands = make([]string, len(demands))
		for i, fi := range perm {
			c.Demands[i] = demands[fi]
		}
	}
	if s.Assignment != nil {
		c.Assignment = make([]int, len(s.Assignment))
		for i, fi := range perm {
			c.Assignment[i] = s.Assignment[fi]
		}
	}
	return c, nil
}

// refHashes are the json.Marshal-based content and topology addresses.
func refHashes(t *testing.T, c *Scenario) (sum, topo [32]byte) {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := json.Marshal(&Scenario{Topology: c.Topology, Tors: c.Tors, Servers: c.Servers, Middles: c.Middles, Flows: c.Flows})
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data), sha256.Sum256(stripped)
}

// FuzzCanonicalEncodeMatchesJSON: the encoder writes json.Marshal's
// bytes for any scenario it does not hand back, and canonicalization
// yields the oracle's canonical form, error and both addresses.
func FuzzCanonicalEncodeMatchesJSON(f *testing.F) {
	for _, s := range subsetSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"tors":2,"servers":2,"middles":3,"flows":[` +
		`{"srcSwitch":2,"srcServer":1,"dstSwitch":1,"dstServer":1},{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},` +
		`{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],` +
		`"demands":["11","2/4","010/3","0.5"],"assignment":[3,1,2,1]}`))
	f.Add([]byte(`{"topology":"fattree","tors":8,"servers":2,"middles":4,"flows":[],"demands":[]}`))
	f.Add([]byte(`{"name":"<&> \u0001","topology":"benes","tors":4,"servers":2,"middles":4,"flows":[]}`))
	f.Add([]byte(`{"tors":1,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":1,"dstServer":1},` +
		`{"srcSwitch":1,"srcServer":1,"dstSwitch":1,"dstServer":1}],"demands":["99999999999999999999/3","1e30"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Scenario
		if json.Unmarshal(data, &s) != nil {
			return
		}
		for _, d := range s.Demands {
			if len(d) > MaxDemandLen || demandExp(d) > MaxDemandExp {
				return // see FuzzNormalizeDemandMatchesBigRat
			}
		}
		e := &encoder{ok: true}
		e.head(&s)
		e.tail(&s)
		want, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		if e.ok && !bytes.Equal(e.buf, want) {
			t.Fatalf("encoder wrote\n%s\njson.Marshal\n%s", e.buf, want)
		}

		ref, refErr := refCanonical(&s)
		form, err := Canonicalize(&s)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("Canonicalize error %v, oracle %v", err, refErr)
		}
		if refErr != nil {
			return
		}
		if !reflect.DeepEqual(form.Scenario, ref) {
			t.Fatalf("canonical form\n%#v\noracle\n%#v", form.Scenario, ref)
		}
		sum, topo := refHashes(t, ref)
		if form.Hash != sum || form.TopoHash != topo {
			t.Fatalf("Canonicalize addresses differ from json.Marshal's for %s", want)
		}
		if _, h, _ := CanonicalHash(&s); h != sum {
			t.Fatal("CanonicalHash differs from json.Marshal's")
		}
		if h, _ := TopologyHash(&s); h != topo {
			t.Fatal("TopologyHash differs from json.Marshal's")
		}
		if s2, h2 := marshalHashes(ref); s2 != sum || h2 != topo {
			t.Fatal("the json.Marshal fallback differs from the oracle")
		}
	})
}

// FuzzNormalizeDemandMatchesBigRat: the demand normalizer spells every
// demand as big.Rat's RatString, rejects what big.Rat rejects or reads
// as negative, and orders normalized demands as big.Rat does.
func FuzzNormalizeDemandMatchesBigRat(f *testing.F) {
	for _, s := range []string{"010/3", "0x10/3", "2/4", "0/5", "1/0", "010", "0", "4/1", "-1/2", "+1/2",
		"1_000", "0b11/011", "1.5", "1e3", "9223372036854775807/9223372036854775806", "92233720368547758070/3", ""} {
		f.Add(s, "1/2")
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		// Decode's demand caps keep spellings that big.Rat takes seconds
		// to expand (1p7000000) from ever reaching the normalizer.
		for _, d := range []string{a, b} {
			if len(d) > MaxDemandLen || demandExp(d) > MaxDemandExp {
				return
			}
		}
		norm := func(s string) (string, *big.Rat) {
			got, err := normDemand(s)
			r, ok := new(big.Rat).SetString(s)
			switch {
			case !ok:
				if err != errNotRational {
					t.Fatalf("normDemand(%q) = %q, %v; big.Rat rejects it", s, got, err)
				}
				return "", nil
			case r.Sign() < 0:
				if err != errNegative {
					t.Fatalf("normDemand(%q) = %q, %v; big.Rat reads it as negative", s, got, err)
				}
				return "", nil
			case err != nil || got != r.RatString():
				t.Fatalf("normDemand(%q) = %q, %v; big.Rat spells it %q", s, got, err, r.RatString())
			}
			return got, r
		}
		na, ra := norm(a)
		nb, rb := norm(b)
		if ra != nil && rb != nil {
			if got, want := cmpDemands(na, nb), ra.Cmp(rb); got != want {
				t.Fatalf("cmpDemands(%q, %q) = %d, big.Rat gives %d", na, nb, got, want)
			}
		}
	})
}

// refBatch is the envelope decoder the fast one replaced: json.Unmarshal
// of batchRequest, then each item through the encoding/json path.
func refBatch(data []byte) (*Batch, error) {
	var env batchRequest
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	b := &Batch{Op: env.Op}
	if env.Items != nil {
		b.Items = make([]BatchItem, len(env.Items))
	}
	for i, it := range env.Items {
		b.Items[i].Op = it.Op
		b.Items[i].Scenario, b.Items[i].Err = decodeJSON(it.Scenario)
	}
	return b, nil
}

// sameBatch compares two decoded envelopes, errors by message.
func sameBatch(a, b *Batch) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Op != b.Op || len(a.Items) != len(b.Items) || (a.Items == nil) != (b.Items == nil) {
		return false
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.Op != y.Op || fmt.Sprint(x.Err) != fmt.Sprint(y.Err) || !reflect.DeepEqual(x.Scenario, y.Scenario) {
			return false
		}
	}
	return true
}

var batchSeeds = []string{
	`{"op":"evaluate","items":[{"scenario":{"tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}],"assignment":[2]}}]}`,
	// per-item 400s next to a healthy item, all in the subset
	`{"items":[{"scenario":{"tors":2,"servers":1,"middles":1,"flows":[]}},{"op":"fastest","scenario":{"tors":0}},{"scenario":{"tors":100000,"servers":100000,"middles":1,"flows":[]}}]}`,
	` { "items" : [ { "scenario" : { } , "op" : "doom" } ] , "op" : "search:lex" } `,
	`{"items":[]}`,
	`{}`,
	// out of the subset: items the fallback fails one by one
	`{"items":[{"scenario":{"tors":2,"servers":1,"middles":1,"flows":[]}},{"scenario":{"Tors":2,"servers":1,"middles":1,"flows":[]}},{"scenario":5},{"scenario":null},{}]}`,
	`{"Items":[{"Scenario":{"tors":2,"servers":1,"middles":1,"flows":[]}}]}`,
	`{"op":"evaluate","op":"doom","items":[]}`,
	`{"items":[{"scenario":{"name":"é","tors":2,"servers":1,"middles":1,"flows":[]}}],"extra":true}`,
	// envelope-level errors
	`{not json`,
	`{"items":{}}`,
	`{"items":[{"scenario":{"tors":2}}]} trailing`,
	``,
}

// FuzzDecodeBatchMatchesJSON: DecodeBatch returns exactly what
// json.Unmarshal of the envelope plus the encoding/json path per item
// returns, including each item's error and the envelope's.
func FuzzDecodeBatchMatchesJSON(f *testing.F) {
	for _, s := range batchSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeBatch(data)
		want, wantErr := refBatch(data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !sameBatch(got, want) {
			t.Fatalf("DecodeBatch(%q) = %+v, %v; oracle %+v, %v", data, got, gotErr, want, wantErr)
		}
	})
}

// TestDecodeBatchFastPath: the healthy and per-item-failure envelopes
// above take the fast path; respelled ones fall back.
func TestDecodeBatchFastPath(t *testing.T) {
	for i, s := range batchSeeds {
		_, ok := decodeBatchFast([]byte(s))
		if want := i < 5; ok != want {
			t.Errorf("seed %d %s: fast = %v, want %v", i, s, ok, want)
		}
	}
	b, err := DecodeBatch([]byte(batchSeeds[1]))
	if err != nil || len(b.Items) != 3 || b.Items[0].Err != nil || b.Items[1].Err == nil || b.Items[2].Err == nil {
		t.Fatalf("per-item outcomes: %+v, %v", b, err)
	}
	if !strings.Contains(b.Items[2].Err.Error(), "cap") {
		t.Errorf("oversized item error %q does not name the cap", b.Items[2].Err)
	}
}

// TestDecodeSizeCaps: a small body cannot request a huge fabric, on
// either decode path.
func TestDecodeSizeCaps(t *testing.T) {
	for _, body := range []string{
		`{"tors":100000,"servers":100000,"middles":1,"flows":[]}`,
		`{"Tors":100000,"servers":100000,"middles":1,"flows":[]}`,
		`{"tors":1,"servers":1,"middles":8192,"flows":[]}`,
		`{"tors":4096,"servers":4096,"middles":4096,"flows":[]}`,
		`{"tors":2,"servers":1,"middles":4096,"flows":[` + strings.Repeat(`{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},`, 256) + `{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}]}`,
	} {
		if _, err := Decode([]byte(body)); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("Decode(%.60s…) = %v, want a size-cap error", body, err)
		}
	}
	if _, err := Decode([]byte(`{"tors":16,"servers":2048,"middles":2048,"flows":[]}`)); err != nil {
		t.Errorf("a shape at the fabric cap was rejected: %v", err)
	}
	// Demands: a ten-byte spelling of a 330-million-bit number, with
	// and without separators and signs, and an over-long spelling.
	flow := `"tors":2,"servers":1,"middles":1,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}]`
	for _, d := range []string{"1e99999999", "1E1_000_000_000", "0x1p-99999999", "0b1e+1001", strings.Repeat("1", MaxDemandLen+1)} {
		body := `{` + flow + `,"demands":["` + d + `"]}`
		if _, err := Decode([]byte(body)); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("demand %.20q: Decode = %v, want a size-cap error", d, err)
		}
	}
	for _, d := range []string{"1e1000", "0x1e5ffff", "1.5e-3", "2/4", "7"} {
		if _, err := Decode([]byte(`{` + flow + `,"demands":["` + d + `"]}`)); err != nil {
			t.Errorf("demand %q within the caps was rejected: %v", d, err)
		}
	}
	huge := &Scenario{Tors: 100000, Servers: 100000, Middles: 1}
	if _, err := Canonical(huge); err != nil {
		t.Errorf("the caps bind Decode only, Canonical rejected: %v", err)
	}
	// One parameter fixes a fat-tree's or a Benes network's whole shape.
	// A small body naming a shape its family cannot have — servers 4096
	// would build a 8192-pod fat-tree — is rejected by the shape check
	// before anything is built, on the capped and the uncapped path.
	for _, body := range []string{
		`{"topology":"fattree","tors":1,"servers":4096,"middles":1,"flows":[]}`,
		`{"topology":"fattree","tors":8,"servers":2,"middles":5,"flows":[]}`,
		`{"topology":"fattree","tors":4611686018427387904,"servers":2147483648,"middles":1,"flows":[]}`,
		`{"topology":"benes","tors":4096,"servers":2,"middles":1,"flows":[]}`,
		`{"topology":"benes","tors":3,"servers":2,"middles":3,"flows":[]}`,
		`{"topology":"benes","tors":4,"servers":3,"middles":4,"flows":[]}`,
	} {
		if _, err := Decode([]byte(body)); err == nil || !strings.Contains(err.Error(), "shape") {
			t.Errorf("Decode(%s) = %v, want a shape error", body, err)
		}
		var s Scenario
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		if _, err := Canonical(&s); err == nil || !strings.Contains(err.Error(), "shape") {
			t.Errorf("Canonical(%s) = %v, want a shape error", body, err)
		}
	}
	for _, body := range []string{
		`{"topology":"fattree","tors":8,"servers":2,"middles":4,"flows":[]}`,
		`{"topology":"benes","tors":4,"servers":2,"middles":4,"flows":[]}`,
	} {
		if _, err := Decode([]byte(body)); err != nil {
			t.Errorf("Decode(%s) rejected a buildable shape: %v", body, err)
		}
	}
}

// TestLoadFileSkipsSizeCaps: the size caps guard the server's decode
// sites, not files a local user wrote. LoadFile reads a scenario past
// the fabric-port cap that Decode rejects.
func TestLoadFileSkipsSizeCaps(t *testing.T) {
	body := []byte(`{"tors":258,"servers":129,"middles":129,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":258,"dstServer":129}]}`)
	if _, err := Decode(body); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Decode = %v, want the fabric-port cap", err)
	}
	path := filepath.Join(t.TempDir(), "big.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if s.Tors != 258 || len(s.Flows) != 1 {
		t.Errorf("LoadFile = %+v", s)
	}
}
