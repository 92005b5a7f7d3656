// Package corpus builds the paper's adversarial instance families as
// encoded codec.Scenario payloads — the one corpus definition shared by
// the closverify batch mode and the golden byte-identity tests of the
// serving layer. A "corpus" here is a list
// of scenario bodies in a deterministic order, so replaying one against
// any transport (HTTP, engine.RunBatch, a CLI) exercises identical
// instances.
package corpus

import (
	"fmt"
	"strings"

	"closnet/internal/adversary"
	"closnet/internal/codec"
	"closnet/internal/gen"
)

// fromAdversary adapts an adversarial instance constructor to the
// scenario-builder shape shared by every family.
func fromAdversary(build func(n int) (*adversary.Instance, error)) func(n int) (*codec.Scenario, error) {
	return func(n int) (*codec.Scenario, error) {
		in, err := build(n)
		if err != nil {
			return nil, err
		}
		return codec.FromInstance(in)
	}
}

// generated adapts a gen.Spec constructor plus traffic config to the
// scenario-builder shape. Generated families are fixed instances — like
// example23 they ignore the corpus size n, so replays stay
// byte-identical across corpus configurations.
func generated(spec func() (gen.Spec, error), tc gen.TrafficConfig) func(n int) (*codec.Scenario, error) {
	return func(int) (*codec.Scenario, error) {
		sp, err := spec()
		if err != nil {
			return nil, err
		}
		return gen.Scenario(sp, tc)
	}
}

// builders maps each corpus family name to its scenario constructor at
// corpus size n. The adversarial families are the §3–§5 constructions:
// the Theorem 3.4 price-of-fairness gadget at two multiplicities, the
// Theorem 4.2 replication-impossibility collection, and the Theorem 4.3
// starvation collection (the heavyweight: n(n-1)(n+1) + 2n + n(n-1) + 1
// flows). The gen* families are fixed-seed stochastic instances from
// the scenario generator, one per non-Clos topology family plus an
// oversubscribed Clos, sized so full-space search stays exhaustible.
var builders = map[string]func(n int) (*codec.Scenario, error){
	"example23":   fromAdversary(func(int) (*adversary.Instance, error) { return adversary.Example23() }),
	"theorem34k2": fromAdversary(func(n int) (*adversary.Instance, error) { return adversary.Theorem34(n, 2) }),
	"theorem34k8": fromAdversary(func(n int) (*adversary.Instance, error) { return adversary.Theorem34(n, 8) }),
	"theorem42":   fromAdversary(adversary.Theorem42),
	"theorem43":   fromAdversary(adversary.Theorem43),
	"genfattree": generated(
		func() (gen.Spec, error) { return gen.FatTreeSpec(4) },
		gen.TrafficConfig{Model: gen.ModelUniform, Flows: 6, ElephantFraction: 0.25, Seed: 1},
	),
	"genbenes": generated(
		func() (gen.Spec, error) { return gen.BenesSpec(8) },
		gen.TrafficConfig{Model: gen.ModelGravity, Flows: 5, Seed: 2},
	),
	"genoversub": generated(
		func() (gen.Spec, error) { return gen.OversubscribedClosSpec(4, 4, 2, 1) },
		gen.TrafficConfig{Model: gen.ModelHotspot, Flows: 6, ElephantFraction: 0.5, Seed: 3},
	),
}

// Families returns the known corpus family names in deterministic
// (sorted) order. example23 is the fixed Figure 1 instance over C_2
// (3 flows, searchable exhaustively) and the gen* generated families
// are fixed-seed instances; the theorem families scale with n.
func Families() []string {
	return []string{
		"example23", "genbenes", "genfattree", "genoversub",
		"theorem34k2", "theorem34k8", "theorem42", "theorem43",
	}
}

// Scenarios builds the requested families over C_n as decoded
// scenarios, in the order given. Family names are trimmed and empty
// entries skipped, so a comma-split flag value can be passed through
// unchanged.
func Scenarios(n int, want []string) ([]*codec.Scenario, []string, error) {
	var scens []*codec.Scenario
	var names []string
	for _, raw := range want {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		build, ok := builders[name]
		if !ok {
			return nil, nil, fmt.Errorf("corpus: unknown family %q (known: %s)", name, strings.Join(Families(), ", "))
		}
		s, err := build(n)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		scens = append(scens, s)
		names = append(names, name)
	}
	return scens, names, nil
}

// Build builds the requested families over C_n as encoded scenario
// payloads (indented JSON, the codec.Encode form), in the order given.
func Build(n int, want []string) ([][]byte, []string, error) {
	scens, names, err := Scenarios(n, want)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(scens))
	for i, s := range scens {
		data, err := codec.Encode(s)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %s: %w", names[i], err)
		}
		bodies[i] = data
	}
	return bodies, names, nil
}
