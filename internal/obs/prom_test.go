package obs

import (
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusRoundTrip: the exposition of a live registry
// passes the linter, covers every registered metric, and carries the
// cumulative histogram series of its timers.
func TestWritePrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.requests").Add(12)
	reg.Counter("server.cache.hits").Add(7)
	reg.Gauge("search.space_total").Set(855)
	lat := reg.Timer("server.latency")
	for i := 1; i <= 500; i++ {
		lat.Observe(time.Duration(i) * time.Microsecond)
	}
	reg.Timer("engine.compute_latency") // registered, never observed

	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE closnet_server_requests_total counter",
		"closnet_server_requests_total 12",
		"closnet_server_cache_hits_total 7",
		"# TYPE closnet_search_space_total gauge",
		"closnet_search_space_total 855",
		"# TYPE closnet_server_latency_seconds histogram",
		"closnet_server_latency_seconds_bucket{le=\"+Inf\"} 500",
		"closnet_server_latency_seconds_count 500",
		"closnet_server_latency_seconds_sum",
		// Unobserved timers still expose an empty, lintable family.
		"closnet_engine_compute_latency_seconds_bucket{le=\"+Inf\"} 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, out)
	}
}

// TestWritePrometheusNil: a nil registry writes nothing.
func TestWritePrometheusNil(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("nil registry wrote %q", sb.String())
	}
}

// TestLintExposition rejects the violations the CI smoke exists to
// catch: undeclared samples, non-monotone bucket bounds or counts,
// missing +Inf/_sum/_count, and disagreeing counts.
func TestLintExposition(t *testing.T) {
	ok := `# TYPE closnet_x_seconds histogram
closnet_x_seconds_bucket{le="0.001"} 3
closnet_x_seconds_bucket{le="0.002"} 5
closnet_x_seconds_bucket{le="+Inf"} 5
closnet_x_seconds_sum 0.004
closnet_x_seconds_count 5
`
	if err := LintExposition(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"empty":      "",
		"undeclared": "closnet_y_total 3\n",
		"le order": `# TYPE closnet_x_seconds histogram
closnet_x_seconds_bucket{le="0.002"} 3
closnet_x_seconds_bucket{le="0.001"} 5
closnet_x_seconds_bucket{le="+Inf"} 5
closnet_x_seconds_sum 1
closnet_x_seconds_count 5
`,
		"count regress": `# TYPE closnet_x_seconds histogram
closnet_x_seconds_bucket{le="0.001"} 5
closnet_x_seconds_bucket{le="0.002"} 3
closnet_x_seconds_bucket{le="+Inf"} 5
closnet_x_seconds_sum 1
closnet_x_seconds_count 5
`,
		"no inf": `# TYPE closnet_x_seconds histogram
closnet_x_seconds_bucket{le="0.001"} 5
closnet_x_seconds_sum 1
closnet_x_seconds_count 5
`,
		"no sum": `# TYPE closnet_x_seconds histogram
closnet_x_seconds_bucket{le="+Inf"} 5
closnet_x_seconds_count 5
`,
		"count mismatch": `# TYPE closnet_x_seconds histogram
closnet_x_seconds_bucket{le="+Inf"} 5
closnet_x_seconds_sum 1
closnet_x_seconds_count 4
`,
		"garbage value": "# TYPE closnet_z gauge\nclosnet_z pancake\n",
	} {
		if err := LintExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("lint accepted the %q exposition", name)
		}
	}
}
