package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Delta is one record-level dataset change in engine terms: Old is the
// record's attribute vector before the change (nil for an insert), New
// the vector after it (nil for a delete). An update carries both.
type Delta struct {
	Old, New geom.Vector
}

// WeakDominates reports p >= v in every attribute (equality allowed
// everywhere): then p scores at least as high as v under every weight
// vector, so v can never strictly outscore p. It is the Tier-A test of
// incremental maintenance, shared with the serving layer's mutation
// classifier.
func WeakDominates(p, v geom.Vector) bool {
	for i, x := range p {
		if x < v[i] {
			return false
		}
	}
	return true
}

// MutationImpact classifies one applied mutation batch against any
// number of kSPR queries: the batch's changed vectors and their strict
// dominator counts are computed once, and each query's Unaffected check
// is then a dominance test and a comparison per vector. Incremental
// maintenance (Maintainer) and the serving layer's cache migration share
// it.
type MutationImpact struct {
	vecs []geom.Vector // the changed vectors
	doms []int         // doms[i]: strict dominators of vecs[i], capped
}

// NewMutationImpact counts every changed vector's strict dominators in
// its own generation: an old vector in oldTree, the index before the
// batch, and a new one in newTree, the index after it (nil for an empty
// generation). maxK caps the counts: it is the largest k Unaffected will
// be asked. Value-preserving updates change nothing and are left out,
// compared bit-exact, NOT with the epsilon-tolerant geom.Vector.Equal: a
// sub-epsilon reprice still changes the hyperplane bits a cold recompute
// would build, and the kept-result guarantee is BYTE identity.
func NewMutationImpact(oldTree, newTree *rtree.Tree, deltas []Delta, maxK int) *MutationImpact {
	mi := &MutationImpact{}
	count := func(tree *rtree.Tree, v geom.Vector) {
		n := 0
		if tree != nil {
			n = tree.CountDominators(v, maxK)
		}
		mi.vecs = append(mi.vecs, v)
		mi.doms = append(mi.doms, n)
	}
	for _, d := range deltas {
		if d.Old != nil && d.New != nil && slices.Equal(d.Old, d.New) {
			continue
		}
		if d.Old != nil {
			count(oldTree, d.Old)
		}
		if d.New != nil {
			count(newTree, d.New)
		}
	}
	return mi
}

// Unaffected reports whether the batch provably cannot change the kSPR
// result of the query with the given focal vector, k and algorithm:
// inserting, deleting or repricing away from or to a changed vector v
// leaves the result's regions alone when
//
//   - Tier A (any algorithm): the focal weakly dominates v, so v never
//     strictly outscores the focal anywhere in preference space and is
//     excluded from processing outright;
//   - Tier B (dominance-ordered algorithms, i.e. everything but plain
//     CTA): at least k records strictly dominate v in its generation, so
//     wherever v outscores the focal, k others already do — v lies
//     outside the k-skyband and outside every bound, pivot, and batch
//     decision the engine makes (Lemma 6). The focal is never one of
//     them: a focal that dominates v passes Tier A.
//
// A k above NewMutationImpact's maxK never passes Tier B. Mutations of
// the focal record itself must be detected by identity upstream:
// Unaffected classifies by value and would treat a tie's removal and the
// focal's removal alike.
func (mi *MutationImpact) Unaffected(focal geom.Vector, k int, algo Algorithm) bool {
	for i, v := range mi.vecs {
		if WeakDominates(focal, v) {
			continue
		}
		// CTA inserts hyperplanes in dataset order, so even a k-dominated
		// record can transiently split live cells before its dominators
		// close them; only Tier A preserves the output bit-for-bit.
		if algo == CTA || mi.doms[i] < k {
			return false
		}
	}
	return true
}

// MaintStats counts a Maintainer's generation-by-generation decisions.
type MaintStats struct {
	// Kept counts generations absorbed without an engine run: mutations
	// classified irrelevant, with the prior result revalidated and reused.
	// Recomputed counts engine reruns, every reprice of the focal included.
	// Generations is their sum.
	Kept, Recomputed, Generations uint64
}

// Maintainer keeps one focal option's kSPR result current across dataset
// generations. Apply classifies each mutation batch with a MutationImpact
// between the generation the result answers and the new one: when every
// mutation is provably irrelevant the prior result is revalidated (the
// focal's presence and values are re-checked against the new index) and
// reused — byte-identical to what a cold rerun on the new generation
// would produce — and only otherwise is the query recomputed. Not safe
// for concurrent use; callers serialize.
type Maintainer struct {
	opts    Options
	focalID int
	tree    *rtree.Tree // the generation res answers
	res     *Result
	stats   MaintStats
}

// NewMaintainer answers the query cold on tree. focal is the focal
// vector (tree.Records[focalID] when focalID >= 0); opts.K must be
// positive.
func NewMaintainer(tree *rtree.Tree, focal geom.Vector, focalID int, opts Options) (*Maintainer, error) {
	res, err := Run(tree, focal, focalID, opts)
	if err != nil {
		return nil, err
	}
	return &Maintainer{opts: opts, focalID: focalID, tree: tree, res: res}, nil
}

// Result returns the current maintained result.
func (m *Maintainer) Result() *Result { return m.res }

// Stats returns the keep/recompute tallies so far.
func (m *Maintainer) Stats() MaintStats { return m.stats }

// Apply advances the maintained result to the dataset generation indexed
// by tree, which the deltas produced from the previous generation.
// focalID is the focal record's index in the NEW tree (-1 for
// hypothetical focals; an error for deleted ones). It returns the current
// result and whether it was recomputed. When the focal record itself was
// repriced, the maintained query follows it: the result is recomputed for
// the new focal vector.
func (m *Maintainer) Apply(tree *rtree.Tree, focalID int, deltas []Delta) (*Result, bool, error) {
	focal := m.res.Focal
	recompute := false
	if m.focalID >= 0 {
		if focalID < 0 || focalID >= tree.Len() {
			return nil, false, fmt.Errorf("core: maintained focal record no longer exists (new index %d)", focalID)
		}
		// Revalidation: the kept result is only valid if the focal option
		// still carries the exact values it was computed for (bit-exact:
		// even a sub-epsilon reprice changes the cold recompute's bytes).
		// A repriced focal is recomputed for its new vector; when the
		// reprice leaves it with >= K strict dominators, Run answers empty
		// after its one Dominators walk.
		if !slices.Equal(tree.Records[focalID], focal) {
			focal = tree.Records[focalID]
			recompute = true
		}
	}
	if !recompute {
		classifySpan := m.opts.Trace.Span(PhaseClassify)
		mi := NewMutationImpact(m.tree, tree, deltas, m.opts.K)
		recompute = !mi.Unaffected(focal, m.opts.K, m.opts.Algorithm)
		classifySpan.End()
	}
	m.stats.Generations++
	if !recompute {
		m.stats.Kept++
		m.focalID, m.tree = focalID, tree
		return m.res, false, nil
	}
	res, err := Run(tree, focal, focalID, m.opts)
	if err != nil {
		return nil, false, err
	}
	m.stats.Recomputed++
	m.focalID, m.tree, m.res = focalID, tree, res
	return res, true, nil
}

// EncodeResult renders a result's query identity and regions — focal, K,
// space, and every region's rank, exactness, witness, constraints,
// vertices, and volume — as a canonical byte string. Two results encode
// identically iff they answer the same query with the same regions in the
// same order; Stats and timing are deliberately excluded (they describe
// the computation, not the answer), and so are Region.Outscorers — dense
// record ids are relative to the generation the result was computed on,
// and a kept result may legitimately carry the previous generation's ids
// after an id-shifting (but result-preserving) delete.
// Incremental-maintenance tests compare kept results against cold
// recomputes with it.
func EncodeResult(res *Result) []byte {
	var b bytes.Buffer
	w := func(vals ...uint64) {
		for _, v := range vals {
			binary.Write(&b, binary.LittleEndian, v)
		}
	}
	wf := func(fs []float64) {
		w(uint64(len(fs)))
		for _, f := range fs {
			w(math.Float64bits(f))
		}
	}
	w(uint64(res.K), uint64(res.Space))
	wf(res.Focal)
	w(uint64(len(res.Regions)))
	for i := range res.Regions {
		reg := &res.Regions[i]
		exact := uint64(0)
		if reg.RankExact {
			exact = 1
		}
		w(uint64(reg.Rank), exact, math.Float64bits(reg.Volume))
		wf(reg.Witness)
		w(uint64(len(reg.Constraints)))
		for _, c := range reg.Constraints {
			wf(c.A)
			w(math.Float64bits(c.B))
		}
		w(uint64(len(reg.Vertices)))
		for _, v := range reg.Vertices {
			wf(v)
		}
	}
	return b.Bytes()
}
