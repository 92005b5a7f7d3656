package search

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"closnet/internal/core"
	"closnet/internal/gen"
	"closnet/internal/rational"
	"closnet/internal/topology"
)

// TestSearchProbeGolden pins the lex and throughput search results on
// generated fat-tree and Clos instances — assignment, exact rates and
// States — for the exhaustive scan at one and two workers and for the
// pruned branch-and-bound. The fat-tree instances scan the full space
// (no interchangeable choices), the Clos ones the canonical space, so
// the golden covers both ranked spaces; the pruned rows pin the bound
// plus leaf evaluation counts. Regenerate with
//
//	go test ./internal/search -run TestSearchProbeGolden -update-golden
func TestSearchProbeGolden(t *testing.T) {
	specs := []struct {
		name string
		mk   func(int) (gen.Spec, error)
		arg  int
	}{
		{"fattree", gen.FatTreeSpec, 4},
		{"clos", gen.ClosSpec, 4},
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"w1", Options{Workers: 1}},
		{"w2", Options{Workers: 2}},
		{"pruned", Options{Pruned: true}},
	}
	var got bytes.Buffer
	for _, sp := range specs {
		spec, err := sp.mk(sp.arg)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range gen.Models() {
			for _, seed := range []int64{1, 2} {
				scen, err := gen.Scenario(spec, gen.TrafficConfig{
					Model: model, Flows: 7, ElephantFraction: 0.25, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				c, fs, _, _, err := scen.Build()
				if err != nil {
					t.Fatal(err)
				}
				for _, obj := range []struct {
					name string
					run  func(topology.Fabric, core.Collection, Options) (*Result, error)
				}{{"lex", LexMaxMin}, {"throughput", ThroughputMaxMin}} {
					for _, m := range modes {
						res, err := obj.run(c, fs, m.opts)
						if err != nil {
							t.Fatalf("%s %s %s: %v", scen.Name, obj.name, m.name, err)
						}
						rates := make([]string, len(res.Allocation))
						for i, r := range res.Allocation {
							rates[i] = rational.String(r)
						}
						fmt.Fprintf(&got, "%s %s %s states=%d ma=%v rates=[%s]\n",
							scen.Name, obj.name, m.name, res.States, res.Assignment, strings.Join(rates, " "))
					}
				}
			}
		}
	}
	out := got.Bytes()
	golden := filepath.Join("testdata", "probe.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("search probe differs from %s:\n got:\n%s\nwant:\n%s", golden, out, want)
	}
}
