// Package dominance maintains the dominance graph of P-CTA (§5): as records
// are fetched and processed, all dominance relationships between processed
// records are recorded so that the hyperplane-insertion algorithm can skip
// feasibility tests (the optInsert shortcut of Algorithm 2).
package dominance

import (
	"repro/internal/geom"
	"repro/internal/kernel"
)

// Graph tracks dominance relationships among a growing set of records.
// Record coordinates live in one flat row-major array (appended on Add),
// so wiring a new record compares it against contiguous memory instead
// of chasing a map of per-record slices — the O(m^2) edge construction
// is the progressive engine's dominance hot loop.
// The zero value is not usable; call New.
type Graph struct {
	ids  []int
	has  map[int]bool // ids already added
	vals []float64    // row-major record coordinates, d per row
	d    int          // set by the first Add
	// dominators[id] lists the processed records that dominate id.
	dominators map[int][]int
}

// New returns an empty dominance graph.
func New() *Graph {
	return &Graph{
		has:        make(map[int]bool),
		dominators: make(map[int][]int),
	}
}

// Add inserts a record and wires its dominance edges to every record
// already in the graph. Adding an existing id is a no-op.
func (g *Graph) Add(id int, v geom.Vector) {
	if g.has[id] {
		return
	}
	if len(g.ids) == 0 {
		g.d = len(v)
	}
	d := g.d
	for row, other := range g.ids {
		switch kernel.CompareFlat(g.vals[row*d:(row+1)*d], v, d) {
		case kernel.CmpFirst:
			g.dominators[id] = append(g.dominators[id], other)
		case kernel.CmpSecond:
			g.dominators[other] = append(g.dominators[other], id)
		}
	}
	g.has[id] = true
	g.ids = append(g.ids, id)
	g.vals = append(g.vals, v...)
}

// Len returns the number of records in the graph.
func (g *Graph) Len() int { return len(g.ids) }

// Dominators returns the IDs of processed records that dominate id.
// Because dominance is transitive and every dominator of a processed record
// is processed before it (P-CTA's Invariant 1), this is the full ancestor
// set, not just direct parents.
func (g *Graph) Dominators(id int) []int { return g.dominators[id] }
