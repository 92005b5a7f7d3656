package codec

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"math/rand"
	"testing"

	"closnet/internal/core"
	"closnet/internal/rational"
)

// The response structs below are the oracle of the body writer: each
// op's body is json.Marshal of its struct plus a newline (MarshalBody),
// the rates rendered by RateStrings and the throughput summed on
// *big.Rat.

type evalResponse struct {
	Hash       string   `json:"hash"`
	Flows      int      `json:"flows"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
}

type searchResponse struct {
	Hash       string   `json:"hash"`
	Objective  string   `json:"objective"`
	Strategy   string   `json:"strategy,omitempty"`
	Assignment []int    `json:"assignment"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
	MinRatio   string   `json:"minRatio,omitempty"`
	States     int      `json:"states"`
}

type doomResponse struct {
	Hash       string   `json:"hash"`
	Assignment []int    `json:"assignment"`
	DoomMiddle int      `json:"doomMiddle"`
	Matched    int      `json:"matched"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
}

type sessionResponse struct {
	Session    string   `json:"session"`
	Op         string   `json:"op"`
	Seq        int      `json:"seq"`
	Hash       string   `json:"hash"`
	Flows      []int    `json:"flows"`
	Assignment []int    `json:"assignment,omitempty"`
	Rates      []string `json:"rates"`
	Throughput string   `json:"throughput"`
	Arrived    *int     `json:"arrived,omitempty"`
}

type sessionCloseResponse struct {
	Session string `json:"session"`
	Closed  bool   `json:"closed"`
	Deltas  int    `json:"deltas"`
}

// RateStrings renders an allocation as exact rational strings.
func RateStrings(a core.Allocation) []string {
	out := make([]string, len(a))
	for i, r := range a {
		out[i] = rational.String(r)
	}
	return out
}

// MarshalBody encodes a response value as compact JSON with a trailing
// newline.
func MarshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// alloc returns r as an allocation.
func (r Rates) alloc() core.Allocation {
	if r.Big != nil {
		return r.Big
	}
	a := make(core.Allocation, len(r.Lane))
	for i, v := range r.Lane {
		a[i] = v.Rat()
	}
	return a
}

// oracleBodies returns, for one set of inputs, the body of every op as
// the writer writes it and as the oracle does. ids are the session flow
// IDs, and arrived < 0 means none.
func oracleBodies(t *testing.T, hash *[32]byte, id string, assignment []int, r Rates, ids []int, arrived int, n int) (got, want [][]byte) {
	t.Helper()
	a := r.alloc()
	rates, thr := RateStrings(a), rational.String(core.Throughput(a))
	h := hex.EncodeToString(hash[:])
	minRatio := big.NewRat(int64(n)+1, int64(2*n)+3)
	var arr *int
	if arrived >= 0 {
		arr = &arrived
	}
	flows := make([]int, len(ids))
	copy(flows, ids)
	var sessAssignment []int
	if len(assignment) > 0 {
		sessAssignment = assignment
	}

	add := func(body []byte, v any) {
		w, err := MarshalBody(v)
		if err != nil {
			t.Fatal(err)
		}
		got, want = append(got, body), append(want, w)
	}
	add(EvaluateBody(hash, n, assignment, r), evalResponse{h, n, assignment, rates, thr})
	for _, obj := range []string{"lex", "throughput"} {
		for _, pruned := range []bool{false, true} {
			strategy := ""
			if pruned {
				strategy = "pruned"
			}
			add(SearchBody(hash, obj, pruned, assignment, r, nil, 7*n),
				searchResponse{h, obj, strategy, assignment, rates, thr, "", 7 * n})
		}
	}
	add(SearchBody(hash, "relative", false, assignment, r, minRatio, n),
		searchResponse{h, "relative", "", assignment, rates, thr, rational.String(minRatio), n})
	add(DoomBody(hash, assignment, n%5, n/2, r), doomResponse{h, assignment, n % 5, n / 2, rates, thr})
	add(SessionBody(id, "session:delta", n, hash, ids, assignment, r, arrived),
		sessionResponse{id, "session:delta", n, h, flows, sessAssignment, rates, thr, arr})
	add(SessionCloseBody(id, n), sessionCloseResponse{id, true, n})
	return got, want
}

// randRates draws n rates: zeros, small fractions, integers, values
// near the int64 limits and, as *big.Rat only, values past them.
func randRates(rng *rand.Rand, n int, asBig, huge bool) Rates {
	lane := make([]rational.Rat64, n)
	a := make(core.Allocation, n)
	for i := range lane {
		var p, q int64
		switch rng.Intn(5) {
		case 0:
			p, q = 0, 1
		case 1:
			p, q = rng.Int63n(8), 1+rng.Int63n(12)
		case 2:
			p, q = rng.Int63n(1<<20), 1
		case 3:
			p, q = rng.Int63(), 1+rng.Int63()
		default:
			p, q = -rng.Int63n(100), 1+rng.Int63n(1<<40)
		}
		v, ok := rational.Make64(p, q)
		if !ok {
			v = rational.Zero64()
		}
		lane[i], a[i] = v, v.Rat()
		if huge && rng.Intn(3) == 0 {
			x := new(big.Int).Lsh(big.NewInt(1+rng.Int63n(1000)), 70)
			a[i] = new(big.Rat).SetFrac(x, big.NewInt(1+2*rng.Int63n(1<<30)))
		}
	}
	if asBig {
		return Rates{Big: a}
	}
	return Rates{Lane: lane}
}

// FuzzResponseBody: every body the writer writes is byte for byte the
// oracle's, and valid JSON, over random Rat64 lanes and *big.Rat
// allocations (zeros, throughput sums past int64 and components past
// int64 included), empty flow lists, nil and empty assignments, and a
// session's omitted fields: an empty assignment and an unset arrived.
func FuzzResponseBody(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1))
	f.Add(int64(3), uint8(12), uint8(2))
	f.Add(int64(4), uint8(40), uint8(3))
	f.Add(int64(5), uint8(1), uint8(4))
	f.Add(int64(6), uint8(6), uint8(8))
	f.Add(int64(7), uint8(64), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, size, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(size % 80)
		r := randRates(rng, n, mode&1 != 0, mode&2 != 0)
		var hash [32]byte
		rng.Read(hash[:])
		idBytes := make([]byte, 8)
		rng.Read(idBytes)
		id := hex.EncodeToString(idBytes)
		var assignment []int
		switch {
		case mode&4 != 0:
			// nil: json.Marshal writes null, and a session omits it.
		case n == 0 && rng.Intn(2) == 0:
			assignment = []int{}
		default:
			assignment = make([]int, n)
			for i := range assignment {
				assignment[i] = 1 + rng.Intn(4096)
			}
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(1 << 20)
		}
		if n == 0 && rng.Intn(2) == 0 {
			ids = nil // the session still writes a list
		}
		arrived := -1
		if mode&8 != 0 {
			arrived = rng.Intn(1 << 16)
		}
		got, want := oracleBodies(t, &hash, id, assignment, r, ids, arrived, n)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("body %d:\nwriter %s\noracle %s", i, got[i], want[i])
			}
			if !json.Valid(got[i]) {
				t.Fatalf("body %d is not valid JSON: %s", i, got[i])
			}
		}
	})
}

// TestBodyThroughputOverflow: when the int64 throughput sum overflows
// — 1/p over large distinct primes — the writer sums on *big.Rat and
// prints the exact sum, from a lane and from an allocation alike.
func TestBodyThroughputOverflow(t *testing.T) {
	primes := []int64{2147483647, 2305843009213693951, 4294967291, 999999999989}
	lane := make([]rational.Rat64, len(primes))
	want := new(big.Rat)
	for i, p := range primes {
		lane[i], _ = rational.Make64(1, p)
		want.Add(want, big.NewRat(1, p))
	}
	if want.Denom().IsInt64() {
		t.Fatalf("the sum %s fits in int64: the test proves nothing", want.RatString())
	}
	sum, ok := rational.Zero64(), true
	for _, v := range lane {
		if sum, ok = sum.Add(v); !ok {
			break
		}
	}
	if ok {
		t.Fatal("the int64 sum did not overflow: the test proves nothing")
	}
	var hash [32]byte
	for _, r := range []Rates{{Lane: lane}, {Big: Rates{Lane: lane}.alloc()}} {
		var body evalResponse
		if err := json.Unmarshal(EvaluateBody(&hash, len(lane), []int{1, 1, 1, 1}, r), &body); err != nil {
			t.Fatal(err)
		}
		if body.Throughput != want.RatString() {
			t.Errorf("throughput %s, want the exact sum %s", body.Throughput, want.RatString())
		}
	}
}

// TestBodyStringsNeedNoEscaping pins the invariant the writer rests on:
// every byte inside a string of a success body is one json.Marshal
// writes as is, and one of the set the bodies are made of (letters of
// the fixed literals, hex and rational digits, ':', '/' and '-').
func TestBodyStringsNeedNoEscaping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var hash [32]byte
	rng.Read(hash[:])
	r := randRates(rng, 20, false, false)
	ids := make([]int, 20)
	got, _ := oracleBodies(t, &hash, "0123456789abcdef", make([]int, 20), r, ids, 3, 20)
	for _, body := range got {
		in := false
		for _, c := range body {
			switch {
			case c == '"':
				in = !in
			case in && !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == ':' || c == '/' || c == '-'):
				t.Fatalf("byte %q inside a string of %s", c, body)
			}
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		again, err := MarshalBody(v)
		if err != nil {
			t.Fatal(err)
		}
		// Re-marshaling a decoded body sorts its keys but must not escape
		// anything: the lengths agree.
		if len(again) != len(body) {
			t.Errorf("re-marshaled body differs in length:\n%s\n%s", body, again)
		}
	}
}

// BenchmarkEvaluateBody writes one 32-flow evaluate body from a lane of
// the small fractions water filling produces.
func BenchmarkEvaluateBody(b *testing.B) {
	lane := make([]rational.Rat64, 32)
	ma := make([]int, 32)
	for i := range lane {
		lane[i], _ = rational.Make64(int64(1+i%3), int64(2+i%5))
		ma[i] = 1 + i%4
	}
	r := Rates{Lane: lane}
	var hash [32]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateBody(&hash, 32, ma, r)
	}
}

// TestRateStrings pins the oracle's rate spelling, which the writer
// reproduces.
func TestRateStrings(t *testing.T) {
	alloc := core.Allocation{
		big.NewRat(1, 3),
		big.NewRat(1, 1),
		big.NewRat(0, 1),
		big.NewRat(5, 2),
	}
	got := RateStrings(alloc)
	want := []string{"1/3", "1", "0", "5/2"}
	if len(got) != len(want) {
		t.Fatalf("RateStrings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("RateStrings[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if empty := RateStrings(nil); len(empty) != 0 {
		t.Errorf("RateStrings(nil) = %v, want empty", empty)
	}
}

// TestMarshalBody pins the oracle's framing, which the writer
// reproduces and every transport depends on: compact single-line JSON
// terminated by exactly one newline, keys in struct order.
func TestMarshalBody(t *testing.T) {
	type doc struct {
		B string   `json:"b"`
		A int      `json:"a"`
		L []string `json:"l,omitempty"`
	}
	body, err := MarshalBody(doc{B: "x", A: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"b":"x","a":7}` + "\n")
	if !bytes.Equal(body, want) {
		t.Errorf("MarshalBody = %q, want %q", body, want)
	}
	again, err := MarshalBody(doc{B: "x", A: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, again) {
		t.Errorf("MarshalBody is not deterministic: %q vs %q", body, again)
	}
	if _, err := MarshalBody(func() {}); err == nil {
		t.Error("MarshalBody accepted an unmarshalable value")
	}
}

func TestErrorBody(t *testing.T) {
	got := ErrorBody(`broken "scenario"`)
	want := []byte(`{"error":"broken \"scenario\""}` + "\n")
	if !bytes.Equal(got, want) {
		t.Errorf("ErrorBody = %q, want %q", got, want)
	}
}
