package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchTree(b *testing.B, n, d int) *Tree {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tr, err := Build(randRecords(rng, n, d))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkBuild times a cold STR build at n=1e5, d=3: the re-index every
// Apply pays.
func BenchmarkBuild(b *testing.B) {
	recs := randRecords(rand.New(rand.NewSource(1)), 100000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildFromOrder times the warm reassembly of the same tree from
// its persisted leaf layout.
func BenchmarkBuildFromOrder(b *testing.B) {
	recs := randRecords(rand.New(rand.NewSource(1)), 100000, 3)
	order, ends := benchTree(b, 100000, 3).LeafOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFromOrder(recs, order, ends); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkyline_50k_d4(b *testing.B) {
	tr := benchTree(b, 50000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Skyline()
	}
}

func BenchmarkKSkyband30_20k_d4(b *testing.B) {
	tr := benchTree(b, 20000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KSkyband(30)
	}
}

func BenchmarkTopK10_50k_d4(b *testing.B) {
	tr := benchTree(b, 50000, 4)
	w := geom.Vector{0.4, 0.3, 0.2, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TopK(w, 10)
	}
}

func BenchmarkDominators_50k_d4(b *testing.B) {
	tr := benchTree(b, 50000, 4)
	p := geom.Vector{0.8, 0.8, 0.8, 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Dominators(p, -1)
	}
}
