package celltree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lp"
)

func benchInsertions(b *testing.B, d, m, k int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	planes := make([]geom.Hyperplane, m)
	for i := range planes {
		planes[i] = randHyperplane(rng, i, d)
	}
	dim := d - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(dim, k, geom.SpaceBoundsTransformed(dim), geom.SimplexCenter(dim), &lp.Stats{})
		for _, h := range planes {
			if err := tr.Insert(h, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkInsert_d3_m50_k5(b *testing.B)   { benchInsertions(b, 3, 50, 5) }
func BenchmarkInsert_d4_m50_k5(b *testing.B)   { benchInsertions(b, 4, 50, 5) }
func BenchmarkInsert_d4_m100_k10(b *testing.B) { benchInsertions(b, 4, 100, 10) }

// BenchmarkCut clips a dim-3 cell with about ten facets by a plane through
// its interior: the geometry cost of one child of a split.
func BenchmarkCut(b *testing.B) {
	const dim = 3
	rng := rand.New(rand.NewSource(1))
	g := BuildCellGeom(geom.SpaceBoundsTransformed(dim), dim)
	for len(g.Facets) < 10 {
		g = g.Cut(cutThrough(rng, g, dim), dim)
	}
	row := cutThrough(rng, g, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Cut(row, dim) == nil {
			b.Fatal("cut through the interior emptied the cell")
		}
	}
	b.ReportMetric(float64(len(g.Facets)), "facets")
}
