package dominance

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestAddAndQuery(t *testing.T) {
	g := New()
	g.Add(1, geom.Vector{0.9, 0.9}) // dominates 2 and 3
	g.Add(2, geom.Vector{0.5, 0.5}) // dominates 3
	g.Add(3, geom.Vector{0.1, 0.2})
	g.Add(4, geom.Vector{0.95, 0.1}) // incomparable with 2, 3

	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	wantDom := map[int][]int{
		1: nil,
		2: {1},
		3: {1, 2},
		4: nil,
	}
	for id, want := range wantDom {
		got := append([]int(nil), g.Dominators(id)...)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("Dominators(%d) = %v, want %v", id, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Dominators(%d) = %v, want %v", id, got, want)
			}
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	g := New()
	g.Add(1, geom.Vector{0.5, 0.5})
	g.Add(1, geom.Vector{0.5, 0.5})
	if g.Len() != 1 {
		t.Fatalf("duplicate Add changed Len to %d", g.Len())
	}
}

func TestGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vecs := make([]geom.Vector, 80)
	g := New()
	for i := range vecs {
		v := geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		vecs[i] = v
		g.Add(i, v)
	}
	for i := range vecs {
		var want []int
		for j := range vecs {
			if i != j && geom.Dominates(vecs[j], vecs[i]) {
				want = append(want, j)
			}
		}
		got := append([]int(nil), g.Dominators(i)...)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("record %d: %d dominators, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("record %d: dominators %v, want %v", i, got, want)
			}
		}
	}
}

func TestEqualRecordsAreNotEdges(t *testing.T) {
	g := New()
	g.Add(1, geom.Vector{0.5, 0.5})
	g.Add(2, geom.Vector{0.5, 0.5})
	if len(g.Dominators(1)) != 0 || len(g.Dominators(2)) != 0 {
		t.Fatal("equal records must not dominate each other")
	}
}
