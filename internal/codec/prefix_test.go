package codec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The canonical prefix against its oracle: CanonicalizeBatch, and the
// batch decoder's shared slices under it, must give every scenario
// exactly what oracleCanonicalize gives that scenario alone.

// demandSpellings are demand strings with equal values spelled
// differently ("1/2", "2/4"), values that tie, and ones canonicalization
// rejects ("x", "-1/2").
var demandSpellings = []string{"1/2", "2/4", "1", "2/2", "3", "1/3", "2/6", "0", "0/5", "11", "2", "010/3"}

// batchPlan builds the scenarios of a random batch from seed and plan.
// Each plan byte makes one item from the one before it: a new
// assignment of the same traffic matrix, an invalid assignment, none, a
// demand respelled or made invalid, the family respelled, a new name, a
// new matrix. Its high bits choose how the item is encoded in the
// envelope: as json.Marshal writes it, indented (equal values in other
// bytes), or with a case-folded key, which sends the whole envelope to
// the encoding/json fallback. Shapes are small, so identical flows
// are common.
func batchPlan(seed int64, plan []byte) (ss []*Scenario, items [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	tors, servers, middles := 2+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(3)
	matrix := func() *Scenario {
		s := &Scenario{Tors: tors, Servers: servers, Middles: middles}
		n := rng.Intn(7)
		s.Flows = make([]FlowJSON, n)
		for i := range s.Flows {
			s.Flows[i] = FlowJSON{1 + rng.Intn(tors), 1 + rng.Intn(servers), 1 + rng.Intn(tors), 1 + rng.Intn(servers)}
		}
		if rng.Intn(4) > 0 {
			s.Demands = make([]string, n)
			for i := range s.Demands {
				s.Demands[i] = demandSpellings[rng.Intn(4*len(demandSpellings)/5)]
			}
		}
		return s
	}
	assign := func(s *Scenario) {
		s.Assignment = make([]int, len(s.Flows))
		for i := range s.Assignment {
			s.Assignment[i] = 1 + rng.Intn(middles)
		}
	}
	prev := matrix()
	assign(prev)
	if len(plan) > 48 {
		plan = plan[:48]
	}
	for _, b := range plan {
		s := *prev
		if rng.Intn(3) == 0 {
			// A copy of the lists, as a separately decoded item has.
			s.Flows = slices.Clone(s.Flows)
			if s.Demands != nil {
				s.Demands = slices.Clone(s.Demands)
			}
		}
		switch b % 10 {
		case 0, 1, 2:
			assign(&s)
		case 3:
			assign(&s)
			if len(s.Assignment) > 0 {
				s.Assignment[rng.Intn(len(s.Assignment))] = middles + 1
			}
		case 4:
			s.Assignment = append(slices.Clone(s.Assignment), 1)
		case 5:
			s.Assignment = nil
		case 6:
			if len(s.Demands) > 0 {
				s.Demands = slices.Clone(s.Demands)
				s.Demands[rng.Intn(len(s.Demands))] = demandSpellings[rng.Intn(len(demandSpellings))]
			}
			assign(&s)
		case 7:
			if s.Topology == "" {
				s.Topology = "clos"
			} else {
				s.Topology = ""
			}
		case 8:
			s.Name = fmt.Sprintf("item-%d", len(ss))
			assign(&s)
		case 9:
			s = *matrix()
			assign(&s)
		}
		if b&0x30 == 0x30 && len(s.Demands) > 0 {
			s.Demands = slices.Clone(s.Demands)
			s.Demands[0] = []string{"x", "-1/2"}[rng.Intn(2)]
		}
		var item []byte
		switch b >> 6 {
		case 1:
			item, _ = json.MarshalIndent(&s, "", " ")
		case 2:
			item, _ = json.Marshal(&s)
			item = bytes.Replace(item, []byte(`"tors":`), []byte(`"Tors":`), 1)
		default:
			item, _ = json.Marshal(&s)
		}
		ss = append(ss, &s)
		items = append(items, item)
		prev = &s
	}
	return ss, items
}

// sameForm compares a canonical form and its error with the oracle's.
func sameForm(t *testing.T, what string, got CanonicalForm, gotErr error, want CanonicalForm, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got.Scenario, want.Scenario) || !slices.Equal(got.Perm, want.Perm) {
		t.Fatalf("%s: form %+v perm %v, oracle %+v perm %v", what, got.Scenario, got.Perm, want.Scenario, want.Perm)
	}
	if got.Hash != want.Hash || got.TopoHash != want.TopoHash {
		t.Fatalf("%s: addresses differ from the oracle's", what)
	}
}

// FuzzCanonicalizeBatch: every scenario of a random batch — shared and
// unshared flow lists, identical flows, demands with ties and
// respellings, invalid assignments and demands, fallback items — gets
// from DecodeBatch plus CanonicalizeBatch exactly the form and error
// that oracleCanonicalize gives it decoded alone, and CanonicalizeBatch
// of the generated scenarios gives each the oracle's form and error.
func FuzzCanonicalizeBatch(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 0, 1, 2, 0})
	f.Add(int64(2), []byte{0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 9, 0})
	f.Add(int64(3), []byte{0, 0x40, 0, 0x80, 0, 0x30, 0})
	f.Add(int64(4), []byte{9, 9, 0, 6, 6, 0, 0x37, 0})
	f.Fuzz(func(t *testing.T, seed int64, plan []byte) {
		ss, items := batchPlan(seed, plan)
		var env bytes.Buffer
		env.WriteString(`{"op":"evaluate","items":[`)
		for i, item := range items {
			if i > 0 {
				env.WriteByte(',')
			}
			env.WriteString(`{"scenario":`)
			env.Write(item)
			env.WriteByte('}')
		}
		env.WriteString(`]}`)
		b, err := DecodeBatch(env.Bytes())
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		var decoded []*Scenario
		var alone []*Scenario
		for i, it := range b.Items {
			s, err := Decode(items[i])
			if fmt.Sprint(err) != fmt.Sprint(it.Err) || !reflect.DeepEqual(it.Scenario, s) {
				t.Fatalf("item %d: batch decode %+v, %v; alone %+v, %v", i, it.Scenario, it.Err, s, err)
			}
			if err == nil {
				decoded = append(decoded, it.Scenario)
				alone = append(alone, s)
			}
		}
		forms, errs := CanonicalizeBatch(decoded)
		for i, s := range alone {
			want, wantErr := oracleCanonicalize(s)
			sameForm(t, fmt.Sprintf("decoded item %d", i), forms[i], errs[i], want, wantErr)
			if !reflect.DeepEqual(decoded[i], s) {
				t.Fatalf("decoded item %d changed under canonicalization", i)
			}
		}
		forms, errs = CanonicalizeBatch(ss)
		for i, s := range ss {
			want, wantErr := oracleCanonicalize(s)
			sameForm(t, fmt.Sprintf("scenario %d", i), forms[i], errs[i], want, wantErr)
		}
	})
}

// TestCanonicalizeBatchTies: a sweep over a flow list with identical
// flows, their ties broken by demand and by assignment, and demands
// spelled two ways, matches the oracle item by item, and the items that
// share a prefix share its flows and demands.
func TestCanonicalizeBatchTies(t *testing.T) {
	base := Scenario{
		Tors: 3, Servers: 2, Middles: 3,
		Flows: []FlowJSON{
			{2, 1, 1, 1}, {1, 1, 3, 2}, {1, 1, 3, 2}, {2, 1, 1, 1}, {1, 1, 3, 2}, {3, 2, 2, 2},
		},
		Demands: []string{"1/2", "1", "1/2", "2/4", "2/2", "1/3"},
	}
	var ss []*Scenario
	for _, ma := range [][]int{{1, 2, 3, 1, 2, 3}, {3, 3, 1, 2, 1, 1}, {2, 1, 1, 3, 3, 2}, {1, 1, 1, 1, 1, 1}} {
		s := base
		s.Assignment = ma
		ss = append(ss, &s)
	}
	respelled := base
	respelled.Demands = []string{"2/4", "1", "1/2", "2/4", "1", "1/3"}
	respelled.Assignment = []int{3, 2, 1, 3, 2, 1}
	ss = append(ss[:2], append([]*Scenario{&respelled}, ss[2:]...)...)

	forms, errs := CanonicalizeBatch(ss)
	for i, s := range ss {
		want, wantErr := oracleCanonicalize(s)
		sameForm(t, fmt.Sprintf("item %d", i), forms[i], errs[i], want, wantErr)
	}
	if &forms[0].Scenario.Flows[0] != &forms[1].Scenario.Flows[0] || &forms[3].Scenario.Demands[0] != &forms[4].Scenario.Demands[0] {
		t.Error("items with one canonical prefix do not share its flows and demands")
	}
	if &forms[1].Scenario.Flows[0] == &forms[2].Scenario.Flows[0] {
		t.Error("a respelled item shares the prefix of its predecessor")
	}
}

// TestSharedItemAllocs pins what an item costs on the shared path, the
// previous item's traffic matrix under a new assignment, as batch-sweep
// sends it: decoding allocates its scenario, name, family string and
// assignment; canonicalizing allocates its canonical scenario and
// assignment. The counts are the difference between a 56-item and a
// 40-item batch, whose item slices grow equally often.
func TestSharedItemAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled encoders at random under -race")
	}
	s := &Scenario{
		Name: "sweep", Topology: "clos", Tors: 10, Servers: 5, Middles: 5,
		Flows:   []FlowJSON{{1, 3, 2, 2}, {1, 4, 2, 4}, {3, 2, 7, 4}, {3, 5, 6, 2}, {4, 1, 10, 5}, {4, 5, 6, 5}, {5, 1, 1, 4}, {6, 2, 2, 1}},
		Demands: []string{"7/8", "1/4", "3/8", "3/32", "9/32", "1/16", "1", "1/8"},
	}
	envelope := func(items int) []byte {
		rng := rand.New(rand.NewSource(1))
		var env bytes.Buffer
		env.WriteString(`{"op":"evaluate","items":[`)
		for i := 0; i < items; i++ {
			it := *s
			it.Assignment = make([]int, len(s.Flows))
			for j := range it.Assignment {
				it.Assignment[j] = 1 + rng.Intn(s.Middles)
			}
			if i > 0 {
				env.WriteByte(',')
			}
			body, _ := json.Marshal(&it)
			fmt.Fprintf(&env, `{"scenario":%s}`, body)
		}
		env.WriteString(`]}`)
		return env.Bytes()
	}
	cost := func(items int) (decode, canon float64) {
		body := envelope(items)
		b, err := DecodeBatch(body)
		if err != nil {
			t.Fatal(err)
		}
		ss := make([]*Scenario, len(b.Items))
		for i, it := range b.Items {
			ss[i] = it.Scenario
		}
		decode = testing.AllocsPerRun(20, func() { DecodeBatch(body) })
		canon = testing.AllocsPerRun(20, func() { CanonicalizeBatch(ss) })
		return decode, canon
	}
	d40, c40 := cost(40)
	d56, c56 := cost(56)
	if got := (d56 - d40) / 16; got != 4 {
		t.Errorf("decoding a shared item allocates %v times, want 4", got)
	}
	if got := (c56 - c40) / 16; got != 2 {
		t.Errorf("canonicalizing a shared item allocates %v times, want 2", got)
	}
}
