package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/rtree"
)

// Micro-benchmarks on a fixed moderate workload; bench_test.go at the
// module root covers the paper's full figure suite.
func benchAlgoMicro(b *testing.B, n, d, k int, algo Algorithm) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Independent, n, d, 7)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := rtree.Build(ds.Records)
	if err != nil {
		b.Fatal(err)
	}
	focalID := tr.Skyline()[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, ds.Records[focalID], focalID, Options{K: k, Algorithm: algo}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCTA_n2k_k10(b *testing.B)    { benchAlgoMicro(b, 2000, 4, 10, CTA) }
func BenchmarkPCTA_n2k_k10(b *testing.B)   { benchAlgoMicro(b, 2000, 4, 10, PCTA) }
func BenchmarkLPCTA_n2k_k10(b *testing.B)  { benchAlgoMicro(b, 2000, 4, 10, LPCTA) }
func BenchmarkLPCTA_n10k_k30(b *testing.B) { benchAlgoMicro(b, 10000, 4, 30, LPCTA) }

// BenchmarkLPCTA_n300_d5_k5 runs LP-CTA in a 4-dimensional preference
// space, celltree.GeomMaxDim: cells carry vertices, so cell tests and rank
// bounds read them instead of solving LPs.
func BenchmarkLPCTA_n300_d5_k5(b *testing.B) { benchAlgoMicro(b, 300, 5, 5, LPCTA) }

// BenchmarkLPCTA_n150_d6_k5 runs LP-CTA in a 5-dimensional preference
// space, beyond celltree.GeomMaxDim: every cell test and every rank bound
// is an LP solve.
func BenchmarkLPCTA_n150_d6_k5(b *testing.B) { benchAlgoMicro(b, 150, 6, 5, LPCTA) }

// BenchmarkLPCTA_n100k_d3_k5 is the wide workload's query shape: a
// dataset large next to its 5-skyband, where candidate discovery and
// batching, not cell-tree expansion, decide the time. Its first
// iteration fills the tree's band table.
func BenchmarkLPCTA_n100k_d3_k5(b *testing.B) { benchAlgoMicro(b, 100000, 3, 5, LPCTA) }
