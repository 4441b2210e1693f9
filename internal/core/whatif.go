package core

// Competitor attribution: the measurement half of the what-if layer. Given
// a focal option's kSPR result, Attribute decomposes the preference space
// by who takes it — inside the result regions it aggregates the exact
// per-region Outscorers facts the cell tree proved (the competitors that
// outrank the focal even where it is shortlisted), and on the complement
// (where the focal misses the top-K entirely) it charges each sampled
// preference vector to the K records occupying the shortlist there. Both
// passes reuse dominance work the engine already did: region membership is
// a constraint check against the existing result, and shortlist occupants
// are drawn from the K-skyband (only skyband records can be top-K
// anywhere), so no per-sample dominance recomputation happens.

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// AttributionEntry is one competitor's measured impact on a focal option.
type AttributionEntry struct {
	// ID is the competitor's dense record index in the generation the
	// attribution ran against.
	ID int
	// MissShare is the fraction of preference space where the focal misses
	// the top-K AND this record holds one of the K shortlist slots — the
	// space this competitor takes from the focal. Shares of different
	// competitors overlap (every miss point has K occupants), so they sum
	// to about K times the miss probability, not to it.
	MissShare float64
	// PressureShare is the fraction of preference space where the focal IS
	// shortlisted but this record still outranks it — aggregated from the
	// per-region Outscorers facts, it measures who pushes the focal down
	// within its own impact region. For exact-rank regions the facts are
	// complete; early-reported regions (RankExact false, LP-CTA look-ahead)
	// carry only the proven subset, so PressureShare is exact when every
	// region is rank-exact and a proven lower bound otherwise.
	PressureShare float64
}

// Attribution is the result of Attribute: the focal option's impact
// probability and the per-competitor decomposition of the rest.
type Attribution struct {
	// K and Samples echo the query and the Monte-Carlo sample count; the
	// probabilities below have the standard O(1/sqrt(Samples)) error.
	K       int
	Samples int
	// Impact is the estimated probability that the focal is shortlisted
	// for a uniformly random preference vector; Miss is its complement
	// (the two are measured on the same samples, so they sum to exactly 1).
	Impact float64
	Miss   float64
	// Entries lists every competitor observed taking or pressuring the
	// focal's space, ordered by MissShare (then PressureShare, then ID)
	// descending.
	Entries []AttributionEntry
}

// Attribute measures which competitors take the focal option's preference
// space. res must be an exact kSPR result for focal on the dataset indexed
// by tree (focalID is the focal's dense index there, -1 for hypothetical
// focals); samples is the Monte-Carlo sample count and must be positive.
func Attribute(tree *rtree.Tree, res *Result, focal geom.Vector, focalID, samples int, seed int64) (*Attribution, error) {
	if res == nil {
		return nil, fmt.Errorf("core: Attribute needs a result")
	}
	if samples <= 0 {
		return nil, fmt.Errorf("core: Attribute needs a positive sample count, got %d", samples)
	}
	d := tree.Dim
	if len(focal) != d {
		return nil, fmt.Errorf("core: focal record has %d dims, index has %d", len(focal), d)
	}
	// Shortlist occupants at any preference vector come from the K-skyband
	// (a record with >= K dominators is outscored by all of them
	// everywhere); exact score ties of the focal are excluded to match the
	// engine's tie semantics (the paper ignores ties).
	band := tree.KSkybandExcluding(res.K, focalID)
	cands := band[:0]
	for _, id := range band {
		if !tree.Records[id].Equal(focal) {
			cands = append(cands, id)
		}
	}

	miss := make(map[int]int)
	pressure := make(map[int]int)
	rng := rand.New(rand.NewSource(seed))
	raw := make([]float64, d)
	w := make(geom.Vector, d)
	type slot struct {
		id    int
		score float64
	}
	top := make([]slot, 0, res.K)
	hits := 0
	for s := 0; s < samples; s++ {
		var sum float64
		for i := range raw {
			raw[i] = rng.ExpFloat64() + 1e-12
			sum += raw[i]
		}
		for i := range w {
			w[i] = raw[i] / sum
		}
		probe := w[:d-1]
		if res.Space == Original {
			probe = w
		}
		if reg := containingRegion(res, probe); reg != nil {
			hits++
			for _, id := range reg.Outscorers {
				pressure[id]++
			}
			continue
		}
		// Miss: charge the K shortlist occupants that actually outscore the
		// focal here (all K do, up to boundary tolerance).
		ps := focal.Dot(w)
		top = top[:0]
		for _, id := range cands {
			sc := tree.Records[id].Dot(w)
			if sc <= ps {
				continue
			}
			pos := len(top)
			for pos > 0 && top[pos-1].score < sc {
				pos--
			}
			if pos >= res.K {
				continue
			}
			if len(top) < res.K {
				top = append(top, slot{})
			}
			copy(top[pos+1:], top[pos:])
			top[pos] = slot{id: id, score: sc}
		}
		for _, t := range top {
			miss[t.id]++
		}
	}

	attr := &Attribution{
		K:       res.K,
		Samples: samples,
		Impact:  float64(hits) / float64(samples),
		Miss:    float64(samples-hits) / float64(samples),
	}
	ids := make(map[int]bool, len(miss)+len(pressure))
	for id := range miss {
		ids[id] = true
	}
	for id := range pressure {
		ids[id] = true
	}
	for id := range ids {
		attr.Entries = append(attr.Entries, AttributionEntry{
			ID:            id,
			MissShare:     float64(miss[id]) / float64(samples),
			PressureShare: float64(pressure[id]) / float64(samples),
		})
	}
	sort.Slice(attr.Entries, func(i, j int) bool {
		a, b := attr.Entries[i], attr.Entries[j]
		if a.MissShare != b.MissShare {
			return a.MissShare > b.MissShare
		}
		if a.PressureShare != b.PressureShare {
			return a.PressureShare > b.PressureShare
		}
		return a.ID < b.ID
	})
	return attr, nil
}

// containingRegion returns the first result region whose closure contains
// the (processing-space) weight vector, or nil.
func containingRegion(res *Result, w geom.Vector) *Region {
	for i := range res.Regions {
		if res.Regions[i].Contains(w, 1e-9) {
			return &res.Regions[i]
		}
	}
	return nil
}
