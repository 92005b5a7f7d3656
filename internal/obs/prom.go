package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): every counter as a `_total`
// counter, every gauge as a gauge, and every timer as a
// cumulative-bucket histogram in base seconds with `_bucket`, `_sum`
// and `_count` series. Metric names are prefixed `closnet_` and
// sanitized (dots become underscores), families are sorted by name, and
// within a histogram the `le` bounds ascend strictly — so the output is
// deterministic for a given registry state and passes LintExposition by
// construction. A nil registry writes nothing.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.timers))
	for name, t := range r.timers {
		hists[name] = t.hist()
	}
	r.mu.Unlock()

	for _, name := range sortedNames(counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(bw, "# HELP %s closnet counter %s\n", pn, name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, counters[name].Value())
	}
	for _, name := range sortedNames(gauges) {
		pn := promName(name)
		fmt.Fprintf(bw, "# HELP %s closnet gauge %s\n", pn, name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, gauges[name].Value())
	}
	for _, name := range sortedNames(hists) {
		pn := promName(name) + "_seconds"
		fmt.Fprintf(bw, "# HELP %s closnet duration histogram %s\n", pn, name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
		h := hists[name]
		buckets, total := h.CumulativeBuckets()
		for _, b := range buckets {
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", pn, promSeconds(b.UpperNs), b.Count)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, total)
		fmt.Fprintf(bw, "%s_sum %s\n", pn, promSeconds(h.sum.Load()))
		fmt.Fprintf(bw, "%s_count %d\n", pn, total)
	}
	return bw.Flush()
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// promName sanitizes a registry metric name into the Prometheus
// alphabet [a-zA-Z0-9_] under the closnet_ namespace: dots (the
// registry's separator) and any other invalid rune become underscores.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len("closnet_") + len(name))
	sb.WriteString("closnet_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promSeconds renders nanoseconds as base-unit seconds, the Prometheus
// convention. strconv 'g' keeps the rendering shortest-round-trip, so
// bounds stay distinct and strictly ordered.
func promSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// LintExposition validates a Prometheus text exposition the way the CI
// metrics smoke needs, without an external promtool: every sample line
// parses, every sample belongs to a `# TYPE`-declared family, at least
// one family exists, and every histogram family satisfies the format's
// invariants — strictly increasing finite `le` bounds, non-decreasing
// cumulative bucket counts, a final `+Inf` bucket, and `_sum`/`_count`
// samples with `_count` equal to the `+Inf` bucket.
func LintExposition(r io.Reader) error {
	type histState struct {
		lastLe     float64
		lastCount  float64
		buckets    int
		infCount   float64
		hasInf     bool
		hasSum     bool
		count      float64
		hasCount   bool
		sampleSeen bool
	}
	types := make(map[string]string) // family name → type
	hists := make(map[string]*histState)
	samples := 0

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, kind := fields[2], fields[3]
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				types[name] = kind
				if kind == "histogram" {
					hists[name] = &histState{lastLe: -1, lastCount: -1}
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples++
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name {
				if _, ok := hists[base]; ok {
					family = base
				}
				break
			}
		}
		kind, declared := types[family]
		if !declared {
			return fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		if kind != "histogram" {
			continue
		}
		h := hists[family]
		h.sampleSeen = true
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("line %d: bucket sample without le label", lineNo)
			}
			if le == "+Inf" {
				h.hasInf = true
				h.infCount = value
				break
			}
			if h.hasInf {
				return fmt.Errorf("line %d: %s bucket after +Inf", lineNo, family)
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("line %d: unparseable le %q", lineNo, le)
			}
			if bound <= h.lastLe {
				return fmt.Errorf("line %d: %s le %v not strictly above %v", lineNo, family, bound, h.lastLe)
			}
			if value < h.lastCount {
				return fmt.Errorf("line %d: %s cumulative bucket count %v fell below %v", lineNo, family, value, h.lastCount)
			}
			h.lastLe, h.lastCount, h.buckets = bound, value, h.buckets+1
		case strings.HasSuffix(name, "_sum"):
			h.hasSum = true
		case strings.HasSuffix(name, "_count"):
			h.hasCount = true
			h.count = value
		default:
			return fmt.Errorf("line %d: unexpected histogram sample %s", lineNo, name)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("exposition carries no samples")
	}
	for name, h := range hists {
		if !h.sampleSeen {
			return fmt.Errorf("histogram %s declared but has no samples", name)
		}
		if !h.hasInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", name)
		}
		if h.lastCount > h.infCount {
			return fmt.Errorf("histogram %s +Inf bucket %v below last finite bucket %v", name, h.infCount, h.lastCount)
		}
		if !h.hasSum {
			return fmt.Errorf("histogram %s has no _sum sample", name)
		}
		if !h.hasCount {
			return fmt.Errorf("histogram %s has no _count sample", name)
		}
		if h.count != h.infCount {
			return fmt.Errorf("histogram %s _count %v != +Inf bucket %v", name, h.count, h.infCount)
		}
	}
	return nil
}

// parseSample splits one exposition sample line into metric name, label
// map and value. Label values are Go-quoted in our output; the parser
// accepts any backslash-escaped quoted string.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated labels in %q", line)
		}
		labels = make(map[string]string)
		for _, pair := range strings.Split(rest[1:end], ",") {
			if pair == "" {
				continue
			}
			kv := strings.SplitN(pair, "=", 2)
			if len(kv) != 2 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			val, uerr := strconv.Unquote(kv[1])
			if uerr != nil {
				return "", nil, 0, fmt.Errorf("malformed label value %q", kv[1])
			}
			labels[kv[0]] = val
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("malformed value %q", rest)
	}
	return name, labels, v, nil
}
