package codec_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/gen"
)

// benchScenario is a /v1/batch-sized item: 32 flows with demands and an
// assignment on C_5, as json.Marshal writes it.
func benchScenario(b *testing.B) (*codec.Scenario, []byte) {
	b.Helper()
	sp, err := gen.ClosSpec(5)
	if err != nil {
		b.Fatal(err)
	}
	s, err := gen.Scenario(sp, gen.TrafficConfig{Model: gen.ModelGravity, Flows: 32, ElephantFraction: 0.25, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s.Assignment = make([]int, len(s.Flows))
	for i := range s.Assignment {
		s.Assignment[i] = 1 + i%s.Middles
	}
	body, err := json.Marshal(s)
	if err != nil {
		b.Fatal(err)
	}
	return s, body
}

func BenchmarkDecode(b *testing.B) {
	_, body := benchScenario(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	_, body := benchScenario(b)
	var env bytes.Buffer
	env.WriteString(`{"op":"evaluate","items":[`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			env.WriteByte(',')
		}
		env.WriteString(`{"scenario":`)
		env.Write(body)
		env.WriteByte('}')
	}
	env.WriteString(`]}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeBatch(env.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalHash(b *testing.B) {
	s, _ := benchScenario(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.CanonicalHash(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyHash(b *testing.B) {
	s, _ := benchScenario(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.TopologyHash(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalize(b *testing.B) {
	s, _ := benchScenario(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Canonicalize(s); err != nil {
			b.Fatal(err)
		}
	}
}
