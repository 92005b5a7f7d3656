package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/gen"
)

// batchBenchItems is the item count of one benchmarked /v1/batch body,
// batch-sweep's.
const batchBenchItems = 32

// batchBenchBodies renders /v1/batch envelopes of batchBenchItems
// evaluate items on C_5, each item a generated traffic matrix (16–48
// flows with demands, the model drawn per matrix, a quarter elephants)
// under a random assignment, as json.Marshal writes it. With shared,
// every body sweeps one matrix over its items' assignments, as
// batch-sweep does; otherwise every item draws its own matrix.
func batchBenchBodies(tb testing.TB, bodies int, shared bool) [][]byte {
	tb.Helper()
	sp, err := gen.ClosSpec(5)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	models := gen.Models()
	draw := func() *codec.Scenario {
		s, err := gen.Scenario(sp, gen.TrafficConfig{
			Model:            models[rng.Intn(len(models))],
			Flows:            16 + rng.Intn(33),
			ElephantFraction: 0.25,
			Seed:             rng.Int63(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	type item struct {
		Scenario *codec.Scenario `json:"scenario"`
	}
	out := make([][]byte, bodies)
	for i := range out {
		env := struct {
			Op    string `json:"op"`
			Items []item `json:"items"`
		}{Op: "evaluate"}
		s := draw()
		for j := 0; j < batchBenchItems; j++ {
			if !shared && j > 0 {
				s = draw()
			}
			it := *s
			it.Assignment = make([]int, len(s.Flows))
			for k := range it.Assignment {
				it.Assignment[k] = 1 + rng.Intn(s.Middles)
			}
			env.Items = append(env.Items, item{&it})
		}
		body, err := json.Marshal(env)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = body
	}
	return out
}

// BenchmarkBatch times one /v1/batch request of batchBenchItems items
// through the server's handler with the result cache off, so every item
// is decoded, prepared and water-filled. shared sends four bodies that
// each sweep one traffic matrix over 32 assignments; distinct sends two
// bodies of 32 different matrices each. Both fit the evaluator pool, so
// after the warm-up every item's fill runs on a pooled evaluator.
func BenchmarkBatch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		bodies int
		shared bool
	}{{"shared", 4, true}, {"distinct", 2, false}} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := New(Options{CacheSize: -1})
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			bodies := batchBenchBodies(b, bc.bodies, bc.shared)
			serve := func(body []byte) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
			for _, body := range bodies {
				serve(body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(bodies[i%len(bodies)])
			}
		})
	}
}
