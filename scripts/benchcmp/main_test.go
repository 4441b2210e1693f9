package main

import (
	"io"
	"slices"
	"testing"
)

func coreSummary(algos map[string]int64) benchFile {
	return benchFile{Name: "core", Dist: "IND", N: 1000, D: 4, K: 10, Queries: 20, Seed: 1, Algorithms: algos}
}

// TestCoreGateFailsOnMissingAlgorithm pins that an algorithm dropping
// out of the fresh run fails the gate by name, while the same summary
// with it measured passes.
func TestCoreGateFailsOnMissingAlgorithm(t *testing.T) {
	baseline := coreSummary(map[string]int64{"LP-CTA": 100, "P-CTA": 100})
	failed, err := coreGate(io.Discard, baseline, coreSummary(map[string]int64{"LP-CTA": 100, "P-CTA": 100}), 0.3, 1)
	if err != nil || len(failed) != 0 {
		t.Fatalf("unchanged summary: failed %v, err %v", failed, err)
	}
	failed, err = coreGate(io.Discard, baseline, coreSummary(map[string]int64{"LP-CTA": 100}), 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(failed, []string{"P-CTA/missing"}) {
		t.Fatalf("fresh summary without P-CTA: failed %v, want [P-CTA/missing]", failed)
	}
}
