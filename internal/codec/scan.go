package codec

import (
	"bytes"
	"math"
)

// The fast decoder: a hand-written scanner for the strict subset of
// JSON that json.Marshal produces for a Scenario (and for a /v1/batch
// envelope of them). It never reports an error. It either accepts the
// input and returns exactly what json.Unmarshal would have decoded, or
// declines, and the caller falls back to encoding/json, which stays
// the only source of decode errors. The subset:
//
//   - objects with exact lowercase keys, each at most once, in any
//     order, with JSON whitespace anywhere a token may be preceded by
//     it; an unknown, duplicate or case-folded key ("Tors", which
//     encoding/json accepts) declines;
//   - integers matching -?(0|[1-9][0-9]*) that fit in an int; a
//     fraction, an exponent or an overflow declines;
//   - strings of printable ASCII with no backslash escape;
//   - arrays of those values; [] decodes to a non-nil empty slice, as
//     json.Unmarshal does; null anywhere declines.
//
// Anything after the top-level value other than whitespace declines.

// scanner is a cursor over the input.
type scanner struct {
	data []byte
	i    int
	// last, set while a batch envelope is read, holds the arrays of the
	// last item that had them.
	last *lastArrays
}

// lastArrays holds the raw bytes and the decoded values of a batch
// item's flows and demands. An item whose array repeats those bytes
// reuses the decoded slice: an array reads only its own bytes, so equal
// bytes decode to an equal value.
type lastArrays struct {
	flowsRaw   []byte
	flows      []FlowJSON
	demandsRaw []byte
	demands    []string
}

// repeat skips the next value when it is raw, byte for byte.
func (s *scanner) repeat(raw []byte) bool {
	s.ws()
	if len(raw) == 0 || !bytes.HasPrefix(s.data[s.i:], raw) {
		return false
	}
	s.i += len(raw)
	return true
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and consumes c if it comes next.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.data)
}

// str reads a string in the subset and returns the offsets of its
// contents.
func (s *scanner) str() (lo, hi int, ok bool) {
	if !s.consume('"') {
		return 0, 0, false
	}
	lo = s.i
	for j := lo; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			s.i = j + 1
			return lo, j, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// key reads an object key and the colon after it.
func (s *scanner) key() ([]byte, bool) {
	lo, hi, ok := s.str()
	if !ok || !s.consume(':') {
		return nil, false
	}
	return s.data[lo:hi], true
}

// int reads an integer in the subset.
func (s *scanner) int() (int, bool) {
	s.ws()
	d, i := s.data, s.i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			c := uint64(d[i] - '0')
			if u > (limit-c)/10 {
				return 0, false
			}
			u = u*10 + c
		}
	default:
		return 0, false
	}
	if i < len(d) {
		switch c := d[i]; {
		case c == '.' || c == 'e' || c == 'E' || (c >= '0' && c <= '9'):
			return 0, false
		}
	}
	s.i = i
	v := int(u)
	if neg {
		v = -v
	}
	return v, true
}

// object reads {key: value, ...}; member reads the value of each key.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		k, ok := s.key()
		if !ok || !member(k) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// array reads [elem, ...]; elem reads one element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// sizeHint estimates how many elements the array starting at the next
// '[' holds, by counting sep up to the first ']', so that the decoded
// slice is allocated once. It is only a capacity: a wrong count (a ']'
// inside a string) costs an append, never a wrong result.
func (s *scanner) sizeHint(sep byte, plusOne bool) int {
	s.ws()
	rest := s.data[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	n := bytes.Count(rest, []byte{sep})
	if plusOne {
		n++
	}
	return min(n, MaxFlows)
}

// The keys of a Scenario, as bits of a seen-set.
const (
	keyName = 1 << iota
	keyTopology
	keyTors
	keyServers
	keyMiddles
	keyFlows
	keyDemands
	keyAssignment
)

// once marks bit in seen and reports whether it was clear.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// scenario reads one Scenario object.
func (s *scanner) scenario() (*Scenario, bool) {
	sc := new(Scenario)
	var seen uint
	ok := s.object(func(k []byte) bool {
		switch string(k) {
		case "name":
			lo, hi, ok := s.str()
			sc.Name = string(s.data[lo:hi])
			return ok && once(&seen, keyName)
		case "topology":
			lo, hi, ok := s.str()
			sc.Topology = string(s.data[lo:hi])
			return ok && once(&seen, keyTopology)
		case "tors":
			v, ok := s.int()
			sc.Tors = v
			return ok && once(&seen, keyTors)
		case "servers":
			v, ok := s.int()
			sc.Servers = v
			return ok && once(&seen, keyServers)
		case "middles":
			v, ok := s.int()
			sc.Middles = v
			return ok && once(&seen, keyMiddles)
		case "flows":
			return once(&seen, keyFlows) && s.flows(sc)
		case "demands":
			return once(&seen, keyDemands) && s.demandsOf(sc)
		case "assignment":
			sc.Assignment = make([]int, 0, s.sizeHint(',', true))
			return once(&seen, keyAssignment) && s.array(func() bool {
				v, ok := s.int()
				sc.Assignment = append(sc.Assignment, v)
				return ok
			})
		}
		return false
	})
	return sc, ok
}

// flows reads the flow list, or, in a batch, takes the last item's when
// the array repeats its bytes.
func (s *scanner) flows(sc *Scenario) bool {
	if s.last != nil && s.repeat(s.last.flowsRaw) {
		sc.Flows = s.last.flows
		return true
	}
	lo := s.i
	sc.Flows = make([]FlowJSON, 0, s.sizeHint('{', false))
	ok := s.array(func() bool {
		f, ok := s.flow()
		sc.Flows = append(sc.Flows, f)
		return ok
	})
	if ok && s.last != nil {
		s.last.flowsRaw, s.last.flows = s.data[lo:s.i], sc.Flows
	}
	return ok
}

// demandsOf reads the demand strings, or, in a batch, takes the last
// item's when the array repeats its bytes.
func (s *scanner) demandsOf(sc *Scenario) bool {
	if s.last != nil && s.repeat(s.last.demandsRaw) {
		sc.Demands = s.last.demands
		return true
	}
	lo := s.i
	ok := s.demands(sc)
	if ok && s.last != nil {
		s.last.demandsRaw, s.last.demands = s.data[lo:s.i], sc.Demands
	}
	return ok
}

// demands reads the demand strings. They are cut out of one copy of
// the array's bytes, one allocation instead of one per demand.
func (s *scanner) demands(sc *Scenario) bool {
	sc.Demands = make([]string, 0, s.sizeHint(',', true))
	base := s.i
	end := len(s.data)
	if j := bytes.IndexByte(s.data[base:], ']'); j >= 0 {
		end = base + j
	}
	block := string(s.data[base:end])
	return s.array(func() bool {
		lo, hi, ok := s.str()
		if !ok {
			return false
		}
		if hi <= end {
			sc.Demands = append(sc.Demands, block[lo-base:hi-base])
		} else {
			sc.Demands = append(sc.Demands, string(s.data[lo:hi]))
		}
		return true
	})
}

// The keys of a FlowJSON, and of the batch envelope and its items, as
// bits of a seen-set.
const (
	keySrcSwitch = 1 << iota
	keySrcServer
	keyDstSwitch
	keyDstServer
	keyOp
	keyItems
	keyScenario
)

// flow reads one FlowJSON object. Absent fields stay zero, as with
// json.Unmarshal.
func (s *scanner) flow() (FlowJSON, bool) {
	var f FlowJSON
	var seen uint
	ok := s.object(func(k []byte) bool {
		var dst *int
		var bit uint
		switch string(k) {
		case "srcSwitch":
			dst, bit = &f.SrcSwitch, keySrcSwitch
		case "srcServer":
			dst, bit = &f.SrcServer, keySrcServer
		case "dstSwitch":
			dst, bit = &f.DstSwitch, keyDstSwitch
		case "dstServer":
			dst, bit = &f.DstServer, keyDstServer
		default:
			return false
		}
		v, ok := s.int()
		*dst = v
		return ok && once(&seen, bit)
	})
	return f, ok
}

// decodeFast decodes data if it lies in the fast subset; ok=false means
// the caller must decode it with encoding/json instead.
func decodeFast(data []byte) (*Scenario, bool) {
	s := scanner{data: data}
	sc, ok := s.scenario()
	if !ok || !s.end() {
		return nil, false
	}
	return sc, true
}

// decodeBatchFast decodes a /v1/batch envelope whose every part lies in
// the fast subset: the keys "op" and "items", each item an object with
// the keys "op" and "scenario", the scenario an object in the subset.
// An item whose flows or demands array repeats the bytes of the last
// one read shares its decoded slice (see DecodeBatch).
func decodeBatchFast(data []byte) (*Batch, bool) {
	s := scanner{data: data, last: new(lastArrays)}
	b := new(Batch)
	var seen uint
	ok := s.object(func(k []byte) bool {
		switch string(k) {
		case "op":
			lo, hi, ok := s.str()
			b.Op = string(s.data[lo:hi])
			return ok && once(&seen, keyOp)
		case "items":
			// Grown by append: counting the items ahead would scan the
			// rest of the body once more.
			b.Items = make([]BatchItem, 0, 8)
			return once(&seen, keyItems) && s.array(func() bool {
				it, ok := s.batchItem()
				b.Items = append(b.Items, it)
				return ok
			})
		}
		return false
	})
	if !ok || !s.end() {
		return nil, false
	}
	return b, true
}

// batchItem reads one envelope item. An item without a scenario
// declines: the fallback reports its error.
func (s *scanner) batchItem() (BatchItem, bool) {
	var it BatchItem
	var seen uint
	ok := s.object(func(k []byte) bool {
		switch string(k) {
		case "op":
			lo, hi, ok := s.str()
			it.Op = string(s.data[lo:hi])
			return ok && once(&seen, keyOp)
		case "scenario":
			sc, ok := s.scenario()
			if ok {
				it.Scenario, it.Err = checked(sc)
			}
			return ok && once(&seen, keyScenario)
		}
		return false
	})
	return it, ok && seen&keyScenario != 0
}
