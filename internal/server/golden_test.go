package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"closnet/internal/corpus"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden response bodies under testdata/golden")

// goldenCase is one (endpoint, scenario) pair whose response body is
// pinned byte-for-byte in testdata/golden. The suite replays the §4 C_4
// corpus through /v1/evaluate and /v1/doom, plus the C_3
// replication-impossibility instance through every /v1/search
// objective, plus the generated fat-tree/Benes/oversubscribed-Clos
// corpus instances, so any refactor of the compute path that changes a
// single response byte fails loudly.
type goldenCase struct {
	name    string // golden file stem
	path    string // endpoint path with query
	request []byte
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase

	c4, names, err := corpus.Build(4, []string{"theorem34k2", "theorem34k8", "theorem42", "theorem43"})
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range c4 {
		cases = append(cases,
			goldenCase{fmt.Sprintf("evaluate_%s_n4", names[i]), "/v1/evaluate", body},
			goldenCase{fmt.Sprintf("doom_%s_n4", names[i]), "/v1/doom", body},
		)
	}

	// The search objectives enumerate the routing space exhaustively,
	// so they get the 3-flow Example 2.3 instance (which carries
	// demands, as objective=relative requires).
	ex, _, err := corpus.Build(0, []string{"example23"})
	if err != nil {
		t.Fatal(err)
	}
	for _, objective := range []string{"lex", "throughput", "relative"} {
		cases = append(cases, goldenCase{
			"search_" + objective + "_example23",
			"/v1/search?objective=" + objective,
			ex[0],
		})
	}

	// The generated non-Clos families (fixed-seed fat-tree, Benes and
	// oversubscribed-Clos instances, small enough for exhaustive
	// search) pin the general-network compute path end to end.
	gens, gnames, err := corpus.Build(0, []string{"genfattree", "genbenes", "genoversub"})
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range gens {
		cases = append(cases,
			goldenCase{"evaluate_" + gnames[i], "/v1/evaluate", body},
			goldenCase{"doom_" + gnames[i], "/v1/doom", body},
			goldenCase{"search_throughput_" + gnames[i], "/v1/search?objective=throughput", body},
		)
	}
	return cases
}

// TestGoldenResponses asserts every /v1/* compute response is
// byte-identical to its pinned golden body. Regenerate with
//
//	go test ./internal/server -run TestGoldenResponses -update-golden
//
// but treat a diff as an API break unless the change is deliberate.
func TestGoldenResponses(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	for _, gc := range goldenCases(t) {
		t.Run(gc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+gc.path, string(gc.request))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, body %s", gc.path, resp.StatusCode, body)
			}
			golden := filepath.Join("testdata", "golden", gc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden body (run with -update-golden): %v", err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("response body drifted from golden %s:\ngot:  %s\nwant: %s", golden, body, want)
			}
		})
	}
}
