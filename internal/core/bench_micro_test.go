package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Micro-benchmarks on a fixed moderate workload; bench_test.go at the
// module root covers the paper's full figure suite.
func benchAlgoMicro(b *testing.B, n, d, k int, algo Algorithm) {
	b.Helper()
	tr, focal, focalID := microQuery(b, n, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, focal, focalID, Options{K: k, Algorithm: algo}); err != nil {
			b.Fatal(err)
		}
	}
}

// microQuery indexes IND data (seed 7) and picks the third skyline record
// as the focal.
func microQuery(b *testing.B, n, d int) (*rtree.Tree, geom.Vector, int) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Independent, n, d, 7)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := rtree.Build(ds.Records)
	if err != nil {
		b.Fatal(err)
	}
	focalID := tr.Skyline(nil)[2]
	return tr, ds.Records[focalID], focalID
}

func BenchmarkCTA_n2k_k10(b *testing.B)    { benchAlgoMicro(b, 2000, 4, 10, CTA) }
func BenchmarkPCTA_n2k_k10(b *testing.B)   { benchAlgoMicro(b, 2000, 4, 10, PCTA) }
func BenchmarkLPCTA_n2k_k10(b *testing.B)  { benchAlgoMicro(b, 2000, 4, 10, LPCTA) }
func BenchmarkLPCTA_n10k_k30(b *testing.B) { benchAlgoMicro(b, 10000, 4, 30, LPCTA) }

// BenchmarkLPCTA_n300_d5_k5 runs LP-CTA in a 4-dimensional preference
// space, beyond celltree.GeomMaxDim: every cell test and every rank bound
// is an LP solve.
func BenchmarkLPCTA_n300_d5_k5(b *testing.B) { benchAlgoMicro(b, 300, 5, 5, LPCTA) }

// BenchmarkApprox_n1k_d3_k10 runs RunApprox to ε = 0.01, reporting the
// boxes it examined.
func BenchmarkApprox_n1k_d3_k10(b *testing.B) {
	tr, focal, focalID := microQuery(b, 1000, 3)
	b.ResetTimer()
	var res *ApproxResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = RunApprox(tr, focal, focalID, ApproxOptions{K: 10, Epsilon: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.RankBoundCells), "boxes")
}
