package polytope

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchCell(rng *rand.Rand, dim, extra int) []geom.Constraint {
	cons := geom.SpaceBoundsTransformed(dim)
	for i := 0; i < extra; i++ {
		a := make(geom.Vector, dim)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		n := a.Norm()
		if n < 1e-9 {
			continue
		}
		for j := range a {
			a[j] /= n
		}
		cons = append(cons, geom.Constraint{A: a, B: rng.Float64() * 0.6})
	}
	return cons
}

func BenchmarkFromConstraints_d3_rows15(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cons := benchCell(rng, 3, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromConstraints(cons, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateVertices_d3_rows15(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cons := benchCell(rng, 3, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EnumerateVertices(cons, 3)
	}
}

func BenchmarkVolume2D(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cons := benchCell(rng, 2, 6)
	p, err := FromConstraints(cons, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Volume(0, 1)
	}
}

func BenchmarkMonteCarloVolume3D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cons := benchCell(rng, 3, 6)
	p, err := FromConstraints(cons, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Volume(2000, 1)
	}
}
