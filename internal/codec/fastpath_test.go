package codec_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"closnet/internal/codec"
	"closnet/internal/corpus"
)

// TestCorpusTakesFastPaths: every corpus scenario — the request bodies
// behind the server's golden responses, in both the indented form the
// corpus ships and json.Marshal's compact form — decodes on the fast
// path and hashes from the streamed encoding, and a /v1/batch envelope
// of them decodes on the fast path too. A change that pushes real
// traffic onto the fallback fails here, not in a benchmark.
func TestCorpusTakesFastPaths(t *testing.T) {
	for _, n := range []int{3, 4} {
		bodies, names, err := corpus.Build(n, corpus.Families())
		if err != nil {
			t.Fatal(err)
		}
		var env bytes.Buffer
		env.WriteString(`{"op":"evaluate","items":[`)
		for i, body := range bodies {
			s, err := codec.Decode(body)
			if err != nil {
				t.Fatalf("%s n=%d: %v", names[i], n, err)
			}
			compact, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			for form, b := range map[string][]byte{"indented": body, "compact": compact} {
				if !codec.DecodesFast(b) {
					t.Errorf("%s n=%d (%s) falls back to encoding/json", names[i], n, form)
				}
			}
			if !codec.HashesFast(s) {
				t.Errorf("%s n=%d: canonical form falls back to json.Marshal", names[i], n)
			}
			if i > 0 {
				env.WriteByte(',')
			}
			fmt.Fprintf(&env, `{"scenario":%s}`, body)
		}
		env.WriteString(`]}`)
		if !codec.DecodesBatchFast(env.Bytes()) {
			t.Errorf("n=%d: batch envelope of the corpus falls back to encoding/json", n)
		}
	}
}
