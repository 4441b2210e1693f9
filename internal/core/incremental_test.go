package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// liveSim simulates the live-dataset store at the engine level: records
// with stable ids, mutated one batch at a time, re-indexed per generation.
type liveSim struct {
	ids    []int64
	recs   []geom.Vector
	nextID int64
	tree   *rtree.Tree
}

func newLiveSim(t *testing.T, recs []geom.Vector) *liveSim {
	t.Helper()
	s := &liveSim{}
	for _, r := range recs {
		s.ids = append(s.ids, s.nextID)
		s.recs = append(s.recs, r.Clone())
		s.nextID++
	}
	s.rebuild(t)
	return s
}

func (s *liveSim) rebuild(t *testing.T) {
	t.Helper()
	tree, err := rtree.Build(s.recs)
	if err != nil {
		t.Fatalf("rebuild index: %v", err)
	}
	s.tree = tree
}

func (s *liveSim) dense(id int64) int {
	for i, x := range s.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// step applies one mutation and returns the engine-level delta.
func (s *liveSim) step(t *testing.T, op string, id int64, vals geom.Vector) Delta {
	t.Helper()
	var d Delta
	switch op {
	case "insert":
		d.New = vals.Clone()
		s.ids = append(s.ids, s.nextID)
		s.recs = append(s.recs, d.New)
		s.nextID++
	case "update":
		i := s.dense(id)
		d.Old, d.New = s.recs[i], vals.Clone()
		s.recs = append(append([]geom.Vector(nil), s.recs[:i]...), s.recs[i:]...) // copy-on-write
		s.recs[i] = d.New
	case "delete":
		i := s.dense(id)
		d.Old = s.recs[i]
		s.ids = append(append([]int64(nil), s.ids[:i]...), s.ids[i+1:]...)
		s.recs = append(append([]geom.Vector(nil), s.recs[:i]...), s.recs[i+1:]...)
	}
	s.rebuild(t)
	return d
}

func randVec(rng *rand.Rand, d int, lo, hi float64) geom.Vector {
	v := make(geom.Vector, d)
	for j := range v {
		v[j] = lo + (hi-lo)*rng.Float64()
	}
	return v
}

// TestIncrementalMatchesColdRecompute is the acceptance test of the
// incremental maintenance engine: a randomized mutation stream — a mix of
// irrelevant churn (records dominated by the focal or deep inside the
// dominated interior) and genuinely relevant edits — applied one
// generation at a time, asserting after EVERY generation that the
// maintained result is byte-identical to a cold recompute on that
// generation, and that both the keep and the recompute path actually ran.
func TestIncrementalMatchesColdRecompute(t *testing.T) {
	algos := []Algorithm{LPCTA, PCTA, KSkybandCTA, CTA}
	for _, algo := range algos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7 + int64(algo)))
			const n, d, k = 220, 3, 6
			base := make([]geom.Vector, n)
			for i := range base {
				base[i] = randVec(rng, d, 0, 1)
			}
			sim := newLiveSim(t, base)

			// A focal from the k-skyband so the query does real work.
			band := sim.tree.KSkyband(k, nil)
			focalStable := sim.ids[band[len(band)/2]]
			focalDense := sim.dense(focalStable)
			opts := Options{K: k, Algorithm: algo, FinalizeGeometry: true, Seed: 3}

			m, err := NewMaintainer(sim.tree, sim.tree.Records[focalDense], focalDense, opts)
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}

			focal := m.Result().Focal
			for step := 0; step < 24; step++ {
				var delta Delta
				switch step % 6 {
				case 0: // Tier-A churn: insert a record the focal dominates
					v := focal.Clone()
					for j := range v {
						v[j] *= 0.3 + 0.6*rng.Float64()
					}
					delta = sim.step(t, "insert", 0, v)
				case 1: // Tier-B churn: insert deep in the dominated interior
					delta = sim.step(t, "insert", 0, randVec(rng, d, 0.01, 0.15))
				case 2: // relevant: insert near the skyline
					delta = sim.step(t, "insert", 0, randVec(rng, d, 0.85, 1))
				case 3: // delete a random non-focal record
					for {
						id := sim.ids[rng.Intn(len(sim.ids))]
						if id != focalStable {
							delta = sim.step(t, "delete", id, nil)
							break
						}
					}
				case 4: // update a random non-focal record
					for {
						id := sim.ids[rng.Intn(len(sim.ids))]
						if id != focalStable {
							delta = sim.step(t, "update", id, randVec(rng, d, 0, 1))
							break
						}
					}
				default: // no-op update (value-preserving)
					id := sim.ids[rng.Intn(len(sim.ids))]
					delta = sim.step(t, "update", id, sim.recs[sim.dense(id)].Clone())
				}

				newDense := sim.dense(focalStable)
				got, _, err := m.Apply(sim.tree, newDense, []Delta{delta})
				if err != nil {
					t.Fatalf("step %d: apply: %v", step, err)
				}
				cold, err := Run(sim.tree, sim.tree.Records[newDense], newDense, opts)
				if err != nil {
					t.Fatalf("step %d: cold run: %v", step, err)
				}
				if !bytes.Equal(EncodeResult(got), EncodeResult(cold)) {
					t.Fatalf("%s step %d: incremental result diverged from cold recompute (incremental %d regions, cold %d)",
						algo, step, len(got.Regions), len(cold.Regions))
				}
			}
			st := m.Stats()
			if st.Kept == 0 {
				t.Fatalf("%s: keep path never taken (stats %+v)", algo, st)
			}
			if st.Recomputed == 0 {
				t.Fatalf("%s: recompute path never taken (stats %+v)", algo, st)
			}
			if st.Generations != 24 {
				t.Fatalf("generations %d, want 24", st.Generations)
			}
		})
	}
}

// TestIncrementalFollowsRepricedFocal pins the focal-mutation semantics:
// repricing the focal option recomputes with the new vector, and deleting
// it errors.
func TestIncrementalFollowsRepricedFocal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]geom.Vector, 150)
	for i := range base {
		base[i] = randVec(rng, 3, 0, 1)
	}
	sim := newLiveSim(t, base)
	band := sim.tree.KSkyband(4, nil)
	focalStable := sim.ids[band[0]]
	opts := Options{K: 4, Algorithm: LPCTA, FinalizeGeometry: true}
	m, err := NewMaintainer(sim.tree, sim.tree.Records[sim.dense(focalStable)], sim.dense(focalStable), opts)
	if err != nil {
		t.Fatal(err)
	}

	reprice := randVec(rng, 3, 0.8, 1)
	delta := sim.step(t, "update", focalStable, reprice)
	res, recomputed, err := m.Apply(sim.tree, sim.dense(focalStable), []Delta{delta})
	if err != nil {
		t.Fatalf("apply reprice: %v", err)
	}
	if !recomputed {
		t.Fatal("focal reprice did not recompute")
	}
	if !res.Focal.Equal(reprice) {
		t.Fatalf("maintained result focal %v, want repriced %v", res.Focal, reprice)
	}
	cold, err := Run(sim.tree, geom.Vector(reprice), sim.dense(focalStable), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeResult(res), EncodeResult(cold)) {
		t.Fatal("repriced result diverged from cold recompute")
	}

	sim.step(t, "delete", focalStable, nil)
	if _, _, err := m.Apply(sim.tree, -1, nil); err == nil {
		t.Fatal("deleting the focal record did not error")
	}
}

// TestFocalStateClassification pins the irrelevance tiers directly: each
// case is a one-mutation batch classified against the focal record 3.
func TestFocalStateClassification(t *testing.T) {
	recs := []geom.Vector{
		{0.9, 0.9}, {0.8, 0.95}, {0.95, 0.8}, // skyline
		{0.5, 0.5},               // the focal
		{0.7, 0.7}, {0.75, 0.65}, // mid-band
	}
	tree, err := rtree.Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	focal := recs[3]
	// unaffected classifies inserting v at k=2.
	unaffected := func(v geom.Vector, algo Algorithm) bool {
		grown, err := rtree.Build(append(slices.Clip(recs), v))
		if err != nil {
			t.Fatal(err)
		}
		return NewMutationImpact(tree, grown, []Delta{{New: v}}, 2).Unaffected(focal, 2, algo)
	}

	if !unaffected(geom.Vector{0.4, 0.3}, LPCTA) {
		t.Fatal("focal-dominated vector classified relevant")
	}
	if !unaffected(geom.Vector{0.5, 0.5}, LPCTA) {
		t.Fatal("exact tie classified relevant")
	}
	if !unaffected(geom.Vector{0.6, 0.6}, LPCTA) {
		t.Fatal("2-dominated vector classified relevant (K=2)")
	}
	if unaffected(geom.Vector{0.97, 0.97}, LPCTA) {
		t.Fatal("new skyline point classified irrelevant")
	}
	if unaffected(geom.Vector{0.85, 0.9}, LPCTA) {
		t.Fatal("1-dominated vector classified irrelevant at K=2")
	}

	if unaffected(geom.Vector{0.6, 0.6}, CTA) {
		t.Fatal("CTA must not keep through Tier B")
	}
	if !unaffected(geom.Vector{0.4, 0.3}, CTA) {
		t.Fatal("CTA Tier A broken")
	}

	noop := NewMutationImpact(tree, tree, []Delta{{Old: geom.Vector{0.9, 0.9}, New: geom.Vector{0.9, 0.9}}}, 2)
	if !noop.Unaffected(focal, 2, LPCTA) {
		t.Fatal("value-preserving update classified affected")
	}
	if unaffected(geom.Vector{0.99, 0.99}, LPCTA) {
		t.Fatal("skyline insert classified unaffected")
	}
	// Counts stop at maxK, so a deeper k never keeps through Tier B.
	grown, err := rtree.Build(append(slices.Clip(recs), geom.Vector{0.6, 0.6}))
	if err != nil {
		t.Fatal(err)
	}
	if NewMutationImpact(tree, grown, []Delta{{New: geom.Vector{0.6, 0.6}}}, 2).Unaffected(focal, 3, LPCTA) {
		t.Fatal("k above maxK kept through Tier B")
	}
}

// TestMutationImpactMatchesBruteForce pins the classifier to the rule it
// implements, evaluated by brute force: every changed vector the focal
// does not weakly dominate needs, for every algorithm but CTA, at least k
// strict dominators among all records of its own generation (old vectors
// before the batch, new ones after). Batches of one to four inserts,
// deletes, updates and value-preserving updates run on random and
// integer-grid data (ties and duplicates); a mutation often inserts or
// removes a dominator of the one before it, so the two generations count
// differently. Focals are drawn from the dataset or hypothetical, and
// every k from 1 to 6 runs under all four algorithms.
func TestMutationImpactMatchesBruteForce(t *testing.T) {
	const maxK = 6
	rng := rand.New(rand.NewSource(41))
	algos := []Algorithm{CTA, KSkybandCTA, PCTA, LPCTA}
	vec := func(d int, grid bool) geom.Vector {
		if !grid {
			return randVec(rng, d, 0, 1)
		}
		v := make(geom.Vector, d)
		for j := range v {
			v[j] = float64(rng.Intn(4))
		}
		return v
	}
	kept, cases := 0, 0
	for trial := 0; trial < 300; trial++ {
		d := 2 + trial%3
		grid := trial%2 == 1
		old := make([]geom.Vector, 2+rng.Intn(60))
		for i := range old {
			old[i] = vec(d, grid)
		}
		cur := slices.Clone(old)
		var deltas []Delta
		var last geom.Vector // the previous mutation's vector
		for range 1 + rng.Intn(4) {
			i := rng.Intn(len(cur))
			if last != nil && rng.Intn(2) == 0 {
				// Mutate a dominator of the previous vector, so that its
				// count differs between the two generations.
				for j, r := range cur {
					if geom.Dominates(r, last) {
						i = j
						if rng.Intn(3) == 0 {
							break
						}
					}
				}
			}
			switch rng.Intn(4) {
			case 0:
				v := vec(d, grid)
				switch {
				case rng.Intn(3) == 0:
					v = cur[i].Clone() // a duplicate
				case last != nil && rng.Intn(2) == 0:
					v = last.Clone() // a dominator of the previous vector
					v[rng.Intn(d)]++
				}
				cur = append(cur, v)
				deltas = append(deltas, Delta{New: v})
				last = v
			case 1:
				if len(cur) > 1 {
					deltas = append(deltas, Delta{Old: cur[i]})
					last = cur[i]
					cur = slices.Delete(cur, i, i+1)
				}
			case 2:
				v := vec(d, grid)
				deltas = append(deltas, Delta{Old: cur[i], New: v})
				last = cur[i]
				cur[i] = v
			default:
				deltas = append(deltas, Delta{Old: cur[i], New: cur[i].Clone()})
			}
		}
		fanout := rtree.WithFanout(4 + trial%13)
		oldTree, err := rtree.Build(old, fanout)
		if err != nil {
			t.Fatal(err)
		}
		curTree, err := rtree.Build(cur, fanout)
		if err != nil {
			t.Fatal(err)
		}
		mi := NewMutationImpact(oldTree, curTree, deltas, maxK)

		// irrelevant is the rule for one changed vector v of generation gen.
		irrelevant := func(focal, v geom.Vector, gen []geom.Vector, k int, algo Algorithm) bool {
			if WeakDominates(focal, v) {
				return true
			}
			if algo == CTA {
				return false
			}
			n := 0
			for _, r := range gen {
				if geom.Dominates(r, v) {
					n++
				}
			}
			return n >= k
		}
		for f := 0; f < 6; f++ {
			focal := old[rng.Intn(len(old))]
			if f%3 == 2 {
				focal = vec(d, grid)
			}
			for k := 1; k <= maxK; k++ {
				for _, algo := range algos {
					want := true
					for _, dl := range deltas {
						if dl.Old != nil && dl.New != nil && slices.Equal(dl.Old, dl.New) {
							continue
						}
						if dl.Old != nil && !irrelevant(focal, dl.Old, old, k, algo) ||
							dl.New != nil && !irrelevant(focal, dl.New, cur, k, algo) {
							want = false
							break
						}
					}
					if got := mi.Unaffected(focal, k, algo); got != want {
						t.Fatalf("trial %d focal %v k %d %s deltas %v: Unaffected = %v, want %v",
							trial, focal, k, algo, deltas, got, want)
					}
					cases++
					if want {
						kept++
					}
				}
			}
		}
	}
	if kept == 0 || kept == cases {
		t.Fatalf("%d of %d cases unaffected: both outcomes must occur", kept, cases)
	}
}

// TestSubEpsilonRepriceRecomputes pins bit-exactness of the keep-path: a
// reprice smaller than geom.Eps still changes the bytes a cold recompute
// builds, so it must NOT be classified a value-preserving no-op.
func TestSubEpsilonRepriceRecomputes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := make([]geom.Vector, 120)
	for i := range base {
		base[i] = randVec(rng, 3, 0, 1)
	}
	sim := newLiveSim(t, base)
	band := sim.tree.KSkyband(4, nil)
	focalStable := sim.ids[band[len(band)/2]]
	opts := Options{K: 4, Algorithm: LPCTA, FinalizeGeometry: true}
	m, err := NewMaintainer(sim.tree, sim.tree.Records[sim.dense(focalStable)], sim.dense(focalStable), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Sub-epsilon reprice of a SKYLINE record (relevant for sure).
	victim := sim.ids[sim.tree.Skyline(nil)[0]]
	if victim == focalStable {
		victim = sim.ids[sim.tree.Skyline(nil)[1]]
	}
	nudged := sim.recs[sim.dense(victim)].Clone()
	nudged[0] += 1e-12
	delta := sim.step(t, "update", victim, nudged)
	got, recomputed, err := m.Apply(sim.tree, sim.dense(focalStable), []Delta{delta})
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("sub-epsilon reprice of a relevant record classified as no-op")
	}
	cold, err := Run(sim.tree, sim.tree.Records[sim.dense(focalStable)], sim.dense(focalStable), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeResult(got), EncodeResult(cold)) {
		t.Fatal("result diverged after sub-epsilon reprice")
	}
	// A sub-epsilon reprice of the FOCAL must also recompute (bit-exact
	// revalidation), with the result following the new bits.
	fNudged := sim.recs[sim.dense(focalStable)].Clone()
	fNudged[1] += 1e-12
	delta = sim.step(t, "update", focalStable, fNudged)
	got, recomputed, err = m.Apply(sim.tree, sim.dense(focalStable), []Delta{delta})
	if err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("sub-epsilon focal reprice kept the stale result")
	}
	if got.Focal[1] != fNudged[1] {
		t.Fatal("recompute did not follow the focal's new bits")
	}
}
