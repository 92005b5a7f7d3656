package main

import (
	"os"
	"path/filepath"
	"testing"

	"closnet/internal/corpus"
)

func TestGenerateAndEvaluateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := run([]string{"-family", "theorem43", "-n", "3", "-o", path}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("output file missing: %v", err)
	}
	if err := run([]string{"-eval", path}); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
}

// TestEvaluateOverCapScenario: a file closscen writes reads back, even
// past the fabric-port cap that guards the daemon's decode sites —
// C_129 has 258 × (129 + 129) = 66564 fabric ports.
func TestEvaluateOverCapScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.json")
	if err := run([]string{"-family", "theorem34", "-n", "129", "-o", path}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"-eval", path}); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
}

func TestGenerateAllFamilies(t *testing.T) {
	for _, family := range []string{"example23", "example53", "theorem34", "theorem42", "theorem43", "theorem54"} {
		if err := run([]string{"-family", family, "-n", "3", "-k", "2", "-o", filepath.Join(t.TempDir(), "s.json")}); err != nil {
			t.Errorf("family %s: %v", family, err)
		}
	}
}

func TestGenerateToStdout(t *testing.T) {
	if err := run([]string{"-family", "example23"}); err != nil {
		t.Fatalf("stdout generate: %v", err)
	}
}

func TestErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing mode accepted")
	}
	if err := run([]string{"-family", "bogus"}); err == nil {
		t.Error("unknown family accepted")
	}
	if err := run([]string{"-eval", "/nonexistent/file.json"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bogus flag accepted")
	}
	// Theorem 5.4 needs odd n: surfaced as an error, not a panic.
	if err := run([]string{"-family", "theorem54", "-n", "4"}); err == nil {
		t.Error("even n accepted for theorem54")
	}
}

func TestEvaluateScenarioWithoutAssignment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.json")
	bare := `{"tors":2,"servers":1,"middles":2,"flows":[{"srcSwitch":1,"srcServer":1,"dstSwitch":2,"dstServer":1}]}`
	if err := os.WriteFile(path, []byte(bare), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-eval", path}); err != nil {
		t.Fatalf("evaluate bare scenario: %v", err)
	}
}

func TestGenerateCorpusFamilies(t *testing.T) {
	for _, name := range corpus.Families() {
		path := filepath.Join(t.TempDir(), "s.json")
		if err := run([]string{"-corpus", name, "-n", "3", "-o", path}); err != nil {
			t.Errorf("corpus %s: %v", name, err)
			continue
		}
		if err := run([]string{"-eval", path}); err != nil {
			t.Errorf("evaluate corpus %s: %v", name, err)
		}
	}
	if err := run([]string{"-corpus", "bogus"}); err == nil {
		t.Error("unknown corpus family accepted")
	}
}
