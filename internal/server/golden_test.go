package server

import (
	"bytes"
	"encoding/json"
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
	// The :pruned ops differ from the exhaustive ones only in the
	// strategy marker and the states count.
	for _, objective := range []string{"lex", "throughput"} {
		cases = append(cases, goldenCase{
			"search_" + objective + "_pruned_example23",
			"/v1/search?objective=" + objective + "&strategy=pruned",
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

// goldenSessionOpen and goldenSessionDeltas are the serving smoke's
// session: a 4-ToR, 2-server, 2-middle Clos opened with two flows, then
// eight deltas covering every op, ids reused after departures included.
const goldenSessionOpen = `{"tors":4,"servers":2,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1},{"srcSwitch":3,"srcServer":1,"dstSwitch":4,"dstServer":1}],"assignment":[1,2]}`

var goldenSessionDeltas = []string{
	`{"op":"arrive","flow":{"srcSwitch":1,"srcServer":2,"dstSwitch":3,"dstServer":2},"middle":1}`,
	`{"op":"arrive","flow":{"srcSwitch":2,"srcServer":1,"dstSwitch":4,"dstServer":2},"middle":2}`,
	`{"op":"reroute","id":0,"middle":2}`,
	`{"op":"depart","id":1}`,
	`{"op":"arrive","flow":{"srcSwitch":4,"srcServer":1,"dstSwitch":1,"dstServer":1},"middle":1}`,
	`{"op":"reroute","id":2,"middle":2}`,
	`{"op":"depart","id":3}`,
	`{"op":"reroute","id":4,"middle":1}`,
}

// TestGoldenSessionBodies pins the session bodies of the smoke sequence
// byte for byte: the open, each delta and the close, concatenated in
// order, with the random session ID replaced by a fixed placeholder.
// Regenerate with -update-golden, as TestGoldenResponses.
func TestGoldenSessionBodies(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2})
	resp, body := post(t, ts.URL+"/v1/session", goldenSessionOpen)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d, body %s", resp.StatusCode, body)
	}
	var opened struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &opened); err != nil || opened.Session == "" {
		t.Fatalf("open body %s: %v", body, err)
	}
	all := append([]byte(nil), body...)
	for i, d := range goldenSessionDeltas {
		resp, body = post(t, ts.URL+"/v1/session/"+opened.Session+"/delta", d)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d, body %s", i, resp.StatusCode, body)
		}
		all = append(all, body...)
	}
	resp, body = post(t, ts.URL+"/v1/session/"+opened.Session+"/close", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d, body %s", resp.StatusCode, body)
	}
	all = append(all, body...)
	all = bytes.ReplaceAll(all, []byte(opened.Session), []byte("SESSION"))

	golden := filepath.Join("testdata", "golden", "session_smoke.json")
	if *updateGolden {
		if err := os.WriteFile(golden, all, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden body (run with -update-golden): %v", err)
	}
	if !bytes.Equal(all, want) {
		t.Errorf("session bodies drifted from golden %s:\ngot:\n%s\nwant:\n%s", golden, all, want)
	}
}
