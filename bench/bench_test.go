package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"closnet/internal/codec"
	"closnet/internal/server"
	"closnet/internal/topology"
)

// seeded memoizes each workload's seed-1 inputs and gate across tests.
var seeded sync.Map // workload name → *seededSet

type seededSet struct {
	inOnce, gOnce sync.Once
	in            *inputs
	g             *gate
	err           error
}

func seedInputs(t *testing.T, name string) *inputs {
	t.Helper()
	v, _ := seeded.LoadOrStore(name, new(seededSet))
	s := v.(*seededSet)
	s.inOnce.Do(func() { s.in, s.err = buildInputs(name, 1) })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.in
}

func seedOne(t *testing.T, name string) (*inputs, *gate) {
	t.Helper()
	in := seedInputs(t, name)
	v, _ := seeded.Load(name)
	s := v.(*seededSet)
	s.gOnce.Do(func() { s.g, s.err = newGate(in) })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return in, s.g
}

// fingerprint hashes every byte a workload sends.
func fingerprint(in *inputs) [32]byte {
	h := sha256.New()
	for _, r := range in.reqs {
		h.Write([]byte(r.path))
		h.Write(r.body)
	}
	for _, c := range in.cycles {
		h.Write(c.open)
		for _, b := range c.bodies {
			h.Write(b)
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := seedInputs(t, name)
			again, err := buildInputs(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			other, err := buildInputs(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(in) != fingerprint(again) {
				t.Error("seed 1 generated different bodies twice")
			}
			if fingerprint(in) == fingerprint(other) {
				t.Error("seeds 1 and 2 generated the same bodies")
			}
		})
	}
}

func distinctHashes(t *testing.T, bodies [][]byte) int {
	t.Helper()
	seen := map[[32]byte]bool{}
	for _, b := range bodies {
		s, err := codec.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		seen[sum] = true
	}
	return len(seen)
}

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	return out
}

func TestEvaluateWorkingSetsStraddleTheCache(t *testing.T) {
	warm := seedInputs(t, wlWarm)
	if n := distinctHashes(t, bodies(warm.reqs)); n > server.DefaultCacheSize {
		t.Errorf("evaluate-warm has %d distinct scenarios, more than the %d-entry cache", n, server.DefaultCacheSize)
	}
	cold := seedInputs(t, wlCold)
	if n := distinctHashes(t, bodies(cold.reqs)); n < 4*server.DefaultCacheSize {
		t.Errorf("evaluate-cold has %d distinct scenarios, want at least %d", n, 4*server.DefaultCacheSize)
	}
}

func TestBatchBodiesShareOneTopology(t *testing.T) {
	in := seedInputs(t, wlBatch)
	var all [][]byte
	for i, r := range in.reqs {
		var env batchEnvelope
		if err := json.Unmarshal(r.body, &env); err != nil {
			t.Fatal(err)
		}
		if len(env.Items) != batchItems {
			t.Fatalf("body %d has %d items, want %d", i, len(env.Items), batchItems)
		}
		topos := map[[32]byte]bool{}
		for _, it := range env.Items {
			s, err := codec.Decode(it.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			th, err := codec.TopologyHash(s)
			if err != nil {
				t.Fatal(err)
			}
			topos[th] = true
			all = append(all, it.Scenario)
		}
		if len(topos) != 1 {
			t.Errorf("body %d spans %d topology hashes, want 1", i, len(topos))
		}
	}
	if n := distinctHashes(t, all); n != batchBodies*batchItems {
		t.Errorf("%d distinct items, want %d", n, batchBodies*batchItems)
	}
}

func TestSearchMixRespectsCaps(t *testing.T) {
	in := seedInputs(t, wlSearch)
	if n := distinctHashes(t, bodies(in.reqs)); n != searchInstances {
		t.Errorf("%d distinct instances, want %d", n, searchInstances)
	}
	for i, r := range in.reqs {
		s, err := codec.Decode(r.body)
		if err != nil {
			t.Fatal(err)
		}
		k := searchCycle[i%len(searchCycle)]
		sp, err := k.spec()
		if err != nil {
			t.Fatal(err)
		}
		if s.Topology != sp.Family || s.Tors != sp.Tors || len(s.Flows) != k.flows || r.path != k.path {
			t.Fatalf("instance %d: %s %d tors, %d flows, %s; want %s %d tors, %d flows, %s",
				i, s.Topology, s.Tors, len(s.Flows), r.path, sp.Family, sp.Tors, k.flows, k.path)
		}
		if s.Topology == topology.FamilyFatTree && strings.Contains(r.path, "throughput") {
			t.Fatalf("instance %d: throughput search on a fat-tree", i)
		}
		if len(s.Flows) > 7 {
			t.Fatalf("instance %d has %d flows, above the cap of 7", i, len(s.Flows))
		}
	}
}

func smokeOptions() options {
	o := defaultOptions(1, 200*time.Millisecond, true)
	o.setups, o.sample = 1, 2
	return o
}

func TestEveryWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			in, g := seedOne(t, name)
			res, err := measureWorkload(name, in, g, smokeOptions())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.EndToEnd[errorRate].Value != 0 {
				t.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
			}
			for _, set := range []struct {
				defs []metricDef
				got  map[string]measure
			}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
				for _, d := range set.defs {
					if m, ok := set.got[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
			}
			if len(res.EndToEnd) != len(endToEnd) || len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d end-to-end and %d per-layer metrics, want %d and %d",
					len(res.EndToEnd), len(res.PerLayer), len(endToEnd), len(perLayer))
			}
		})
	}
}

func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", wlSession, "--seed", "1", "--seconds", "0.2", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(line))
	for k := range line {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]measure
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if _, ok := metrics[d.name]; ok == (d.name == errorRate) {
			t.Errorf("metric %s present: %v", d.name, ok)
		}
	}
	if !strings.HasPrefix(lines[0], wlSession+" throughput_rps ") {
		t.Errorf("first line %q, want the throughput metric line", lines[0])
	}
}

// The correctness gate: one wrong expectation in the timed window must
// surface as a failed request.
func TestGateCatchesAWrongBody(t *testing.T) {
	for _, name := range []string{wlCold, wlSession} {
		t.Run(name, func(t *testing.T) {
			in, g := seedOne(t, name)
			bad := &gate{digests: slices.Clone(g.digests), ends: slices.Clone(g.ends)}
			// The window starts right after the warm-up pass.
			if k := warmups(in); name == wlSession {
				bad.ends[k].Hash = "0"
			} else {
				bad.digests[k][0] ^= 1
			}
			o := smokeOptions()
			o.trace = false
			if name == wlSession {
				// The check runs once a whole cycle of deltas completes.
				o.window = time.Second
			}
			res, err := measureWorkload(name, in, bad, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.EndToEnd[errorRate].Value == 0 {
				t.Errorf("corrupted expectation not detected: %d of %d failed", res.Failed, res.Attempted)
			}
		})
	}
}

// Hang safety: a server that never answers fails every outstanding
// request at the phase's hard deadline instead of stalling the run.
func TestHungServerFailsAtDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to EOF lets the server notice the client
		// hanging up, which ends this handler.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer ts.Close()
	l := loop{conns: 2, window: 100 * time.Millisecond, timeout: time.Minute, slack: 200 * time.Millisecond}
	r := &request{path: "/v1/evaluate", body: []byte("{}")}
	start := time.Now()
	tl, _ := l.run(func(ctx context.Context, cn *conn, _ time.Time) {
		cn.request(ctx, ts.URL, r, [32]byte{})
	})
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("phase took %v against a 300ms deadline", d)
	}
	if tl.attempted != 2 || tl.failed != tl.attempted {
		t.Errorf("%d of %d failed, want error rate 1 over 2 requests", tl.failed, tl.attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// writeRuns writes one synthetic result file per throughput value.
func writeRuns(t *testing.T, dir, set string, rps ...float64) []string {
	t.Helper()
	var paths []string
	for i, v := range rps {
		rf := runFile{Seed: 1, Workloads: []*result{{Workload: wlWarm, EndToEnd: map[string]measure{"throughput_rps": {v, "req/s"}}}}}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, set+string(rune('0'+i))+".json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	sp := `{"workloads":[{"name":"evaluate-warm"}],"end_to_end":[{"name":"throughput_rps","unit":"req/s","better":"higher","bound":0.1}]}`
	if err := os.WriteFile(specPath, []byte(sp), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeRuns(t, dir, "a", 100, 101, 99, 100, 102)
	for _, c := range []struct {
		name    string
		rps     []float64
		verdict string
		code    int
	}{
		{"same", []float64{100, 99, 101, 100, 100}, "unchanged", 0},
		{"slower", []float64{80, 81, 79, 80, 82}, "regressed", 1},
		{"faster", []float64{130, 131, 129, 130, 132}, "improved", 0},
		{"noisy", []float64{60, 140, 100, 70, 130}, "unresolved", 0},
		{"noisy-but-all-faster", []float64{110, 150, 190, 120, 180}, "improved", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := writeRuns(t, dir, c.name, c.rps...)
			args := append(append(append([]string{"compare", "-spec", specPath}, base...), "--"), b...)
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
				t.Errorf("exit %d, want %d; output:\n%s%s", code, c.code, stdout.String(), stderr.String())
			}
		})
	}
}

// The tables in README.md are generated from the committed result
// files; this fails when either changed without the other.
func TestReadmeTablesAreGenerated(t *testing.T) {
	a, _ := filepath.Glob("results/a-*.json")
	b, _ := filepath.Glob("results/b-*.json")
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no result files under results/")
	}
	var stdout, stderr bytes.Buffer
	args := append(append(append([]string{"report", "-spec", "../BENCHMARK.json"}, a...), "--"), b...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("report exit %d: %s", code, stderr.String())
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok1 := strings.Cut(string(readme), "<!-- report:begin -->\n")
	block, _, ok2 := strings.Cut(rest, "<!-- report:end -->")
	if !ok1 || !ok2 {
		t.Fatal("README.md has no report markers")
	}
	if block != stdout.String() {
		t.Errorf("README.md tables are stale; regenerate them with\n  bash bench/run.sh report bench/results/a-*.json -- bench/results/b-*.json")
	}
}

// BENCHMARK.json and this program must name the same workloads and
// metrics, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	defs := func(ms []specMetric) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	e2e := slices.DeleteFunc(slices.Clone(endToEnd), func(d metricDef) bool { return d.name == errorRate })
	if got := defs(sp.EndToEnd); !slices.Equal(got, e2e) {
		t.Errorf("end_to_end %v, want %v", got, e2e)
	}
	if got := defs(sp.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, want %v", got, perLayer)
	}
}
