package codec

// Hooks for the external tests: which path an input takes.

// DecodesFast reports whether Decode reads data on the fast path.
func DecodesFast(data []byte) bool {
	_, ok := decodeFast(data)
	return ok
}

// DecodesBatchFast reports whether DecodeBatch reads data on the fast
// path.
func DecodesBatchFast(data []byte) bool {
	_, ok := decodeBatchFast(data)
	return ok
}

// HashesFast reports whether the canonical form of s is hashed from the
// streamed encoding rather than json.Marshal's.
func HashesFast(s *Scenario) bool {
	c, err := Canonical(s)
	if err != nil {
		return false
	}
	e := &encoder{ok: true}
	e.head(c)
	e.tail(c)
	return e.ok
}
