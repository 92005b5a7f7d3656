package codec

import (
	"crypto/sha256"
	"encoding"
	"hash"
	"strconv"
	"sync"
)

// encoder writes the JSON encoding of a Scenario byte for byte as
// json.Marshal does, streamed into SHA-256. The argument for byte
// identity: json.Marshal writes a struct as '{', then "key":value for
// each field in declaration order, comma-separated, skipping an
// omitempty field whose value is empty ("" or a zero-length slice),
// then '}'; an int as strconv.AppendInt in base 10; a nil slice as
// null and any other as '[' elements ']'; a string as '"' bytes '"',
// escaping control characters, '"', '\\', '<', '>', '&' and rewriting
// or escaping non-ASCII. The encoder writes the same tokens in the same
// order, and a string it would have to escape (it writes only printable
// ASCII outside that set) clears ok, upon which the caller hashes
// json.Marshal's output instead.
type encoder struct {
	buf []byte
	// h receives buf whenever it grows past flushAt; with h nil, the
	// whole encoding stays in buf.
	h hash.Hash
	// topo receives a copy of h's state at the end of the flow list.
	topo   hash.Hash
	ok     bool
	digest [sha256.Size]byte
}

// flushAt is the buffered size at which the encoder hands its bytes to
// the hash.
const flushAt = 512

var encoders = sync.Pool{New: func() any {
	return &encoder{buf: make([]byte, 0, 2*flushAt), h: sha256.New(), topo: sha256.New()}
}}

func getEncoder() *encoder {
	e := encoders.Get().(*encoder)
	e.buf = e.buf[:0]
	e.h.Reset()
	e.ok = true
	return e
}

func putEncoder(e *encoder) { encoders.Put(e) }

// flush hands the buffered bytes to the hash once there are at least
// min of them.
func (e *encoder) flush(min int) {
	if e.h != nil && len(e.buf) >= min {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// fork flushes and copies h's state into topo.
func (e *encoder) fork() {
	e.flush(0)
	state, err := e.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err == nil {
		err = e.topo.(encoding.BinaryUnmarshaler).UnmarshalBinary(state)
	}
	if err != nil {
		e.ok = false
	}
}

// save flushes and returns h's state, or nil when it cannot be saved or
// a string so far needed escaping (the caller hashes json.Marshal's
// bytes then, which a saved state cannot continue).
func (e *encoder) save() []byte {
	e.flush(0)
	state, err := e.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil || !e.ok {
		return nil
	}
	return state
}

// restore sets h to a state save returned.
func (e *encoder) restore(state []byte) bool {
	return e.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state) == nil
}

// sum returns h's digest without allocating.
func (e *encoder) sum(h hash.Hash) [32]byte {
	h.Sum(e.digest[:0])
	return e.digest
}

// head writes '{' and every field through the flow list.
func (e *encoder) head(s *Scenario) {
	e.buf = append(e.buf, '{')
	if s.Name != "" {
		e.buf = append(e.buf, `"name":`...)
		e.str(s.Name)
		e.buf = append(e.buf, ',')
	}
	if s.Topology != "" {
		e.buf = append(e.buf, `"topology":`...)
		e.str(s.Topology)
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, `"tors":`...)
	e.buf = strconv.AppendInt(e.buf, int64(s.Tors), 10)
	e.buf = append(e.buf, `,"servers":`...)
	e.buf = strconv.AppendInt(e.buf, int64(s.Servers), 10)
	e.buf = append(e.buf, `,"middles":`...)
	e.buf = strconv.AppendInt(e.buf, int64(s.Middles), 10)
	e.buf = append(e.buf, `,"flows":`...)
	if s.Flows == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := range s.Flows {
		f := &s.Flows[i]
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"srcSwitch":`...)
		e.buf = strconv.AppendInt(e.buf, int64(f.SrcSwitch), 10)
		e.buf = append(e.buf, `,"srcServer":`...)
		e.buf = strconv.AppendInt(e.buf, int64(f.SrcServer), 10)
		e.buf = append(e.buf, `,"dstSwitch":`...)
		e.buf = strconv.AppendInt(e.buf, int64(f.DstSwitch), 10)
		e.buf = append(e.buf, `,"dstServer":`...)
		e.buf = strconv.AppendInt(e.buf, int64(f.DstServer), 10)
		e.buf = append(e.buf, '}')
		e.flush(flushAt)
	}
	e.buf = append(e.buf, ']')
}

// demands writes the demands field, if there are demands.
func (e *encoder) demands(s *Scenario) {
	if len(s.Demands) > 0 {
		e.buf = append(e.buf, `,"demands":[`...)
		for i, d := range s.Demands {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(d)
			e.flush(flushAt)
		}
		e.buf = append(e.buf, ']')
	}
}

// assignment writes the assignment field, if there is an assignment,
// and the closing '}'.
func (e *encoder) assignment(s *Scenario) {
	if len(s.Assignment) > 0 {
		e.buf = append(e.buf, `,"assignment":[`...)
		for i, m := range s.Assignment {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = strconv.AppendInt(e.buf, int64(m), 10)
			e.flush(flushAt)
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

// str writes a string that json.Marshal leaves unescaped, and clears
// ok for any other.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			e.ok = false
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// closeBrace ends the topology preimage.
var closeBrace = []byte{'}'}
