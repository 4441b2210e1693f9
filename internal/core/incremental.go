package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

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

// ExactlyEqual reports bit-exact component equality. The incremental
// keep-path must use this, NOT the epsilon-tolerant geom.Vector.Equal: a
// sub-epsilon reprice still changes the hyperplane bits a cold recompute
// would build, and the kept-result guarantee is BYTE identity.
func ExactlyEqual(a, b geom.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// FocalState is the cached per-focal classification state incremental
// maintenance tests mutations against: the focal vector plus the record
// vectors that can certify a mutation irrelevant — the focal's k-skyband
// together with the focal's dominators. It is built once per (focal, K)
// from the dataset index and consulted with pure dominance tests, so
// classifying a mutation batch touches no index structures at all.
type FocalState struct {
	// Focal is the focal option's attribute vector; K the shortlist size;
	// Algorithm the processing algorithm the maintained result was
	// computed with.
	Focal     geom.Vector
	K         int
	Algorithm Algorithm
	refs      []geom.Vector
}

// NewFocalState caches the classification state for one focal option.
// focalID is the focal's index in tree (or -1 for a hypothetical record).
func NewFocalState(tree *rtree.Tree, focal geom.Vector, focalID, k int, algo Algorithm) *FocalState {
	s := &FocalState{Focal: focal.Clone(), K: k, Algorithm: algo}
	band := tree.KSkybandExcluding(k, focalID)
	for _, id := range band {
		rec := tree.Records[id]
		// Records the focal weakly dominates can never certify a mutation
		// irrelevant on their own: whenever such a record dominates the
		// mutated vector, so does the focal, and the Tier-A test already
		// catches that.
		if !WeakDominates(focal, rec) {
			s.refs = append(s.refs, rec)
		}
	}
	return s
}

// VectorIrrelevant reports whether a record with attribute vector v is
// provably irrelevant to the focal's kSPR result — inserting, deleting,
// or repricing away from/to v cannot change the result's regions:
//
//   - Tier A (any algorithm): the focal weakly dominates v, so v never
//     strictly outscores the focal anywhere in preference space and is
//     excluded from processing outright;
//   - Tier B (dominance-ordered algorithms, i.e. everything but plain
//     CTA): at least K cached reference records strictly dominate v, so
//     wherever v outscores the focal, K others already do — v lies
//     outside the k-skyband and outside every bound, pivot, and batch
//     decision the engine makes.
//
// Counting dominators within the cached references is exact: a dominator
// of v outside the k-skyband has >= K skyband dominators of its own that
// also dominate v, and skyband dominators the focal weakly dominates
// imply Tier A.
func (s *FocalState) VectorIrrelevant(v geom.Vector) bool {
	if len(v) != len(s.Focal) {
		return false
	}
	if WeakDominates(s.Focal, v) {
		return true
	}
	if s.Algorithm == CTA {
		// CTA inserts hyperplanes in dataset order, so even a K-dominated
		// record can transiently split live cells before its dominators
		// close them; only Tier A preserves the output bit-for-bit.
		return false
	}
	n := 0
	for _, r := range s.refs {
		if geom.Dominates(r, v) {
			n++
			if n >= s.K {
				return true
			}
		}
	}
	return false
}

// Unaffected reports whether the whole mutation batch is provably unable
// to change the focal's kSPR result. Mutations of the focal record itself
// must be detected by identity upstream — FocalState classifies by value
// and would treat a tie's removal and the focal's removal alike.
func (s *FocalState) Unaffected(deltas []Delta) bool {
	for _, d := range deltas {
		if d.Old != nil && d.New != nil && ExactlyEqual(d.Old, d.New) {
			continue // value-preserving update: the dataset is unchanged
		}
		if d.Old != nil && !s.VectorIrrelevant(d.Old) {
			return false
		}
		if d.New != nil && !s.VectorIrrelevant(d.New) {
			return false
		}
	}
	return true
}

// MaintStats counts a Maintainer's generation-by-generation decisions.
type MaintStats struct {
	// Kept counts generations absorbed without an engine run: mutations
	// classified irrelevant with the prior result revalidated and reused,
	// or — after a focal reprice — the result proven empty by the
	// dominator-count shortcut. Recomputed counts cold reruns. Generations
	// is their sum.
	Kept, Recomputed, Generations uint64
}

// Maintainer keeps one focal option's kSPR result current across dataset
// generations. Apply classifies each mutation batch against the cached
// per-focal state: when every mutation is provably irrelevant the prior
// result is revalidated (the focal's presence and values are re-checked
// against the new index) and reused — byte-identical to what a cold rerun
// on the new generation would produce — and only otherwise is the query
// recomputed. Not safe for concurrent use; callers serialize.
type Maintainer struct {
	opts    Options
	tree    *rtree.Tree
	focalID int
	state   *FocalState
	res     *Result
	stats   MaintStats
}

// NewMaintainer answers the query cold on tree and caches the per-focal
// classification state. focal is the focal vector (tree.Records[focalID]
// when focalID >= 0); opts.K must be positive.
func NewMaintainer(tree *rtree.Tree, focal geom.Vector, focalID int, opts Options) (*Maintainer, error) {
	res, err := Run(tree, focal, focalID, opts)
	if err != nil {
		return nil, err
	}
	return &Maintainer{
		opts:    opts,
		tree:    tree,
		focalID: focalID,
		state:   NewFocalState(tree, focal, focalID, opts.K, opts.Algorithm),
		res:     res,
	}, nil
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
	focal := m.state.Focal
	recompute := false
	if m.focalID >= 0 {
		if focalID < 0 || focalID >= tree.Len() {
			return nil, false, fmt.Errorf("core: maintained focal record no longer exists (new index %d)", focalID)
		}
		// Revalidation: the kept result is only valid if the focal option
		// still carries the exact values it was computed for (bit-exact:
		// even a sub-epsilon reprice changes the cold recompute's bytes).
		if !ExactlyEqual(tree.Records[focalID], focal) {
			focal = tree.Records[focalID]
			// Reprice shortcut: when the repriced focal has at least K
			// strict dominators in the new tree, the cold recompute is
			// provably the empty result (kAdj <= 0 short-circuits before any
			// cell-tree work), so synthesize it — byte-identical under
			// EncodeResult — instead of running the engine. This is the keep
			// path what-if reprice probes hit while the probed price is
			// still hopeless. The other deltas in the batch need no
			// classification: emptiness is determined by the new tree alone.
			doms := tree.Dominators(focal, func(id int) bool { return id == focalID })
			if len(doms) >= m.opts.K {
				res := &Result{Focal: focal.Clone(), K: m.opts.K, Space: m.opts.Space}
				res.Stats.BaseRank = len(doms)
				m.stats.Generations++
				m.stats.Kept++
				m.tree, m.focalID = tree, focalID
				m.state = NewFocalState(tree, focal, focalID, m.opts.K, m.opts.Algorithm)
				m.res = res
				return res, false, nil
			}
			recompute = true
		}
	}
	if !recompute {
		classifySpan := m.opts.Trace.Span(PhaseClassify)
		unaffected := m.state.Unaffected(deltas)
		classifySpan.End()
		if !unaffected {
			recompute = true
		}
	}
	m.stats.Generations++
	if !recompute {
		m.stats.Kept++
		m.tree, m.focalID = tree, focalID
		return m.res, false, nil
	}
	res, err := Run(tree, focal, focalID, m.opts)
	if err != nil {
		return nil, false, err
	}
	m.stats.Recomputed++
	m.tree, m.focalID = tree, focalID
	m.state = NewFocalState(tree, focal, focalID, m.opts.K, m.opts.Algorithm)
	m.res = res
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
