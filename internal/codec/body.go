package codec

import (
	"encoding/hex"
	"encoding/json"
	"math/big"
	"strconv"
	"sync"

	"closnet/internal/core"
	"closnet/internal/rational"
)

// The success bodies of the engine ops, written straight from integers:
// each is compact single-line JSON with a trailing newline, the fields
// in a fixed order, byte for byte what json.Marshal writes for the
// op's response struct (those structs are the test oracle in
// body_test.go). A batch response is the concatenation of its items'
// bodies.
//
// Invariant: every string a success body holds is a fixed literal of
// the engine (a key, an op, objective or strategy name), lowercase hex
// (a hash or session ID) or a rational spelled with digits, '-' and
// '/'. None of those bytes is one json.Marshal escapes, so the writer
// escapes nothing. ErrorBody, whose message is arbitrary text, keeps
// json.Marshal.

// Rates is the rate vector of a body in one of its two forms: the
// kernel's Rat64 lane, or an allocation for a state promoted to
// *big.Rat (and for the ops whose results are allocations). Big wins
// when non-nil.
type Rates struct {
	Lane []rational.Rat64
	Big  core.Allocation
}

func (r Rates) len() int {
	if r.Big != nil {
		return len(r.Big)
	}
	return len(r.Lane)
}

// bigSum is the throughput on *big.Rat, the fallback of an int64 sum
// that overflows.
func (r Rates) bigSum() *big.Rat {
	if r.Big != nil {
		return core.Throughput(r.Big)
	}
	s := new(big.Rat)
	for _, v := range r.Lane {
		s.Add(s, v.Rat())
	}
	return s
}

// EvaluateBody is the evaluate op's body: the allocation of the
// canonical scenario under its routing, in canonical flow order.
func EvaluateBody(hash *[32]byte, flows int, assignment []int, r Rates) []byte {
	w := newBodyWriter()
	w.hex("hash", hash[:])
	w.int("flows", flows)
	w.ints("assignment", assignment)
	w.rates(r)
	return w.finish()
}

// SearchBody is the search:* ops' body: the optimal routing under the
// objective and its allocation, in canonical flow order. A pruned op
// carries the strategy marker, and the relative objective its minimum
// ratio (nil otherwise); states counts enumerated states, or bound plus
// leaf evaluations when pruned.
func SearchBody(hash *[32]byte, objective string, pruned bool, assignment []int, r Rates, minRatio *big.Rat, states int) []byte {
	w := newBodyWriter()
	w.hex("hash", hash[:])
	w.str("objective", objective)
	if pruned {
		w.str("strategy", "pruned")
	}
	w.ints("assignment", assignment)
	w.rates(r)
	if minRatio != nil {
		w.key("minRatio")
		w.buf = append(w.buf, '"')
		w.buf = rational.Append(w.buf, minRatio)
		w.buf = append(w.buf, '"')
	}
	w.int("states", states)
	return w.finish()
}

// DoomBody is the doom op's body: Algorithm 1's routing and its
// allocation, in canonical flow order.
func DoomBody(hash *[32]byte, assignment []int, doomMiddle, matched int, r Rates) []byte {
	w := newBodyWriter()
	w.hex("hash", hash[:])
	w.ints("assignment", assignment)
	w.int("doomMiddle", doomMiddle)
	w.int("matched", matched)
	w.rates(r)
	return w.finish()
}

// SessionBody is the body of a session open or delta: the session's
// state in canonical scenario order. flows lists the session flow IDs,
// parallel to assignment (omitted when empty) and the rates; hash is
// the state's canonical hash. arrived is the ID an arrive delta
// assigned, or negative for none (omitted).
func SessionBody(id, op string, seq int, hash *[32]byte, flows, assignment []int, r Rates, arrived int) []byte {
	w := newBodyWriter()
	w.str("session", id)
	w.str("op", op)
	w.int("seq", seq)
	w.hex("hash", hash[:])
	if flows == nil {
		flows = []int{} // a list, never null
	}
	w.ints("flows", flows)
	if len(assignment) > 0 {
		w.ints("assignment", assignment)
	}
	w.rates(r)
	if arrived >= 0 {
		w.int("arrived", arrived)
	}
	return w.finish()
}

// SessionCloseBody acknowledges a session close after deltas deltas.
func SessionCloseBody(id string, deltas int) []byte {
	w := newBodyWriter()
	w.str("session", id)
	w.key("closed")
	w.buf = append(w.buf, "true"...)
	w.int("deltas", deltas)
	return w.finish()
}

// bodyWriter appends one body into pooled scratch, which finish copies
// out at exact size: the result cache and /v1/batch retain bodies, the
// scratch is never retained.
type bodyWriter struct {
	buf []byte
}

// maxPooledBody bounds the scratch a writer returns to the pool, so one
// huge body does not pin its buffer.
const maxPooledBody = 64 << 10

var bodyWriters = sync.Pool{New: func() any { return &bodyWriter{buf: make([]byte, 0, 1024)} }}

func newBodyWriter() *bodyWriter {
	w := bodyWriters.Get().(*bodyWriter)
	w.buf = append(w.buf[:0], '{')
	return w
}

// finish closes the body, copies it out and releases the writer.
func (w *bodyWriter) finish() []byte {
	w.buf = append(w.buf, '}', '\n')
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	if cap(w.buf) <= maxPooledBody {
		bodyWriters.Put(w)
	}
	return out
}

// key writes the separator and "k":.
func (w *bodyWriter) key(k string) {
	if len(w.buf) > 1 {
		w.buf = append(w.buf, ',')
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, k...)
	w.buf = append(w.buf, '"', ':')
}

// str writes a string field; v must need no escaping (the invariant
// above).
func (w *bodyWriter) str(k, v string) {
	w.key(k)
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, v...)
	w.buf = append(w.buf, '"')
}

func (w *bodyWriter) hex(k string, b []byte) {
	w.key(k)
	w.buf = append(w.buf, '"')
	w.buf = hex.AppendEncode(w.buf, b)
	w.buf = append(w.buf, '"')
}

func (w *bodyWriter) int(k string, v int) {
	w.key(k)
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

// ints writes an int list, null for a nil one as json.Marshal does.
func (w *bodyWriter) ints(k string, v []int) {
	w.key(k)
	if v == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.buf = append(w.buf, '[')
	for i, x := range v {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = strconv.AppendInt(w.buf, int64(x), 10)
	}
	w.buf = append(w.buf, ']')
}

// rates writes "rates" and "throughput". The throughput is summed in
// int64 (an allocation's rates convert losslessly when they fit) and
// on *big.Rat only when that sum overflows.
func (w *bodyWriter) rates(r Rates) {
	w.key("rates")
	w.buf = append(w.buf, '[')
	sum, ok := rational.Zero64(), true
	for i := 0; i < r.len(); i++ {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = append(w.buf, '"')
		var v rational.Rat64
		if r.Big != nil {
			w.buf = rational.Append(w.buf, r.Big[i])
			if ok {
				v, ok = rational.FromRat(r.Big[i])
			}
		} else {
			v = r.Lane[i]
			w.buf = v.Append(w.buf)
		}
		if ok {
			sum, ok = sum.Add(v)
		}
		w.buf = append(w.buf, '"')
	}
	w.buf = append(w.buf, ']')
	w.key("throughput")
	w.buf = append(w.buf, '"')
	if ok {
		w.buf = sum.Append(w.buf)
	} else {
		w.buf = rational.Append(w.buf, r.bigSum())
	}
	w.buf = append(w.buf, '"')
}

// apiError is the JSON error body of every non-200 response.
type apiError struct {
	Error string `json:"error"`
}

// ErrorBody renders an error message in the shared single-line JSON
// error shape: {"error": msg} plus a trailing newline.
func ErrorBody(msg string) []byte {
	b, _ := json.Marshal(apiError{Error: msg})
	return append(b, '\n')
}
