package celltree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/lp"
)

// newTestTree builds a CellTree over the transformed preference space of
// dimension dim with pruning threshold k.
func newTestTree(dim, k int) *Tree {
	return New(dim, k, geom.SpaceBoundsTransformed(dim), geom.SimplexCenter(dim), &lp.Stats{})
}

// randHyperplane produces a proper hyperplane from two random records.
func randHyperplane(rng *rand.Rand, id, d int) geom.Hyperplane {
	for {
		r := make(geom.Vector, d)
		p := make(geom.Vector, d)
		for j := 0; j < d; j++ {
			r[j] = rng.Float64()
			p[j] = rng.Float64()
		}
		h := geom.NewHyperplaneTransformed(id, r, p)
		if h.Kind == geom.Proper {
			return h
		}
	}
}

func TestNewTree(t *testing.T) {
	tr := newTestTree(2, 3)
	if tr.Done() {
		t.Fatal("fresh tree reports done")
	}
	if tr.CountNodes() != 1 {
		t.Fatalf("CountNodes = %d", tr.CountNodes())
	}
	if got := tr.Rank(tr.Root); got != 1 {
		t.Fatalf("root rank %d, want 1", got)
	}
}

func TestNewTreeWithNonPositiveK(t *testing.T) {
	tr := newTestTree(2, 0)
	if !tr.Done() {
		t.Fatal("k=0 tree should start closed")
	}
}

func TestInsertRejectsNonProper(t *testing.T) {
	tr := newTestTree(2, 3)
	h := geom.Hyperplane{Kind: geom.AlwaysPositive}
	if err := tr.Insert(h, nil); err == nil {
		t.Fatal("expected error for non-proper hyperplane")
	}
}

// countLiveLeaves is a helper.
func countLiveLeaves(tr *Tree) int {
	n := 0
	tr.LiveLeaves(func(*Node) bool { n++; return true })
	return n
}

func TestSingleSplit(t *testing.T) {
	tr := newTestTree(2, 10)
	// Hyperplane w1 = w2 cuts the simplex.
	h := geom.NewHyperplaneTransformed(0, geom.Vector{1, 0, 0}, geom.Vector{0, 1, 0})
	if h.Kind != geom.Proper {
		t.Fatalf("unexpected kind %v", h.Kind)
	}
	if err := tr.Insert(h, nil); err != nil {
		t.Fatal(err)
	}
	if got := countLiveLeaves(tr); got != 2 {
		t.Fatalf("live leaves = %d, want 2", got)
	}
	if tr.Stats.Splits != 1 {
		t.Fatalf("Splits = %d", tr.Stats.Splits)
	}
	// Children carry interior witnesses on the right sides.
	neg, pos := tr.Root.Neg, tr.Root.Pos
	if neg.WStar == nil || pos.WStar == nil {
		t.Fatal("children missing w*")
	}
	if h.Side(neg.WStar, 0) != geom.Negative {
		t.Fatalf("neg child w* %v on wrong side", neg.WStar)
	}
	if h.Side(pos.WStar, 0) != geom.Positive {
		t.Fatalf("pos child w* %v on wrong side", pos.WStar)
	}
}

func TestCoverSetWhenHyperplaneMissesSpace(t *testing.T) {
	tr := newTestTree(2, 10)
	// A record much better than p in every dimension (but not a constant
	// shift): its negative halfspace misses the preference space entirely,
	// so case I applies at the root.
	h := geom.NewHyperplaneTransformed(0, geom.Vector{5, 6, 7}, geom.Vector{0.1, 0.2, 0.1})
	if err := tr.Insert(h, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Root.Neg != nil {
		t.Fatal("root should not have split")
	}
	if len(tr.Root.Cover) != 1 || tr.Root.Cover[0].Sign != geom.Positive {
		t.Fatalf("cover = %v, want one positive halfspace", tr.Root.Cover)
	}
	if got := tr.Rank(tr.Root); got != 2 {
		t.Fatalf("root rank %d, want 2", got)
	}
}

// Oracle check: after inserting hyperplanes, the rank of the leaf
// containing any random interior w equals 1 + (number of positive sides w
// lies on), and the leaf's path constraints contain w.
func TestLeafRanksMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		d := 3 + rng.Intn(2) // data dim 3 or 4, pref dim 2 or 3
		dim := d - 1
		tr := New(dim, 1<<30, geom.SpaceBoundsTransformed(dim), geom.SimplexCenter(dim), &lp.Stats{})
		var hs []geom.Hyperplane
		for i := 0; i < 12; i++ {
			h := randHyperplane(rng, i, d)
			hs = append(hs, h)
			if err := tr.Insert(h, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Sample random interior points and locate their leaf by walking.
		for s := 0; s < 100; s++ {
			w := randSimplexPoint(rng, dim)
			onBoundary := false
			want := 1
			for _, h := range hs {
				switch h.Side(w, 1e-9) {
				case geom.Positive:
					want++
				case 0:
					onBoundary = true
				}
			}
			if onBoundary {
				continue
			}
			leaf := locate(tr, w)
			if leaf == nil {
				t.Fatalf("no leaf contains %v", w)
			}
			if got := tr.Rank(leaf); got != want {
				t.Fatalf("trial %d: rank at %v = %d, want %d", trial, w, got, want)
			}
			for _, c := range tr.PathConstraints(leaf) {
				if !c.Holds(w, 1e-9) {
					t.Fatalf("leaf constraints exclude the point that led there")
				}
			}
		}
	}
}

// locate walks the tree structure following sides of w.
func locate(tr *Tree, w geom.Vector) *Node {
	n := tr.Root
	for !n.IsLeaf() {
		if n.Neg.Label.H.Side(w, 0) == geom.Negative {
			n = n.Neg
		} else {
			n = n.Pos
		}
	}
	return n
}

func randSimplexPoint(rng *rand.Rand, dim int) geom.Vector {
	raw := make([]float64, dim+1)
	var sum float64
	for i := range raw {
		raw[i] = rng.ExpFloat64() + 1e-9
		sum += raw[i]
	}
	w := make(geom.Vector, dim)
	for i := range w {
		w[i] = raw[i] / sum
	}
	return w
}

func TestPruningEliminatesHighRankCells(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 3
	k := 2
	tr := newTestTree(d-1, k)
	var hs []geom.Hyperplane
	for i := 0; i < 15; i++ {
		h := randHyperplane(rng, i, d)
		hs = append(hs, h)
		if err := tr.Insert(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	// All surviving leaves must have rank <= k; and for random interior
	// points with brute-force rank <= k, the containing leaf must be alive.
	tr.LiveLeaves(func(n *Node) bool {
		if r := tr.Rank(n); r > k {
			t.Fatalf("live leaf with rank %d > k=%d", r, k)
		}
		return true
	})
	for s := 0; s < 200; s++ {
		w := randSimplexPoint(rng, d-1)
		want := 1
		boundary := false
		for _, h := range hs {
			switch h.Side(w, 1e-9) {
			case geom.Positive:
				want++
			case 0:
				boundary = true
			}
		}
		if boundary || want > k {
			continue
		}
		leaf := locate(tr, w)
		if leaf.Pruned {
			t.Fatalf("point %v with rank %d lies in a pruned leaf", w, want)
		}
	}
}

func TestDominanceShortcut(t *testing.T) {
	d := 3
	tr := newTestTree(d-1, 100)
	p := geom.Vector{0.5, 0.5, 0.5}
	// r1 is incomparable to p; r2 is dominated by r1.
	r1 := geom.Vector{0.9, 0.4, 0.5}
	r2 := geom.Vector{0.85, 0.35, 0.45}
	h1 := geom.NewHyperplaneTransformed(1, r1, p)
	h2 := geom.NewHyperplaneTransformed(2, r2, p)
	if err := tr.Insert(h1, nil); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats.DomShortcuts
	if err := tr.Insert(h2, []int{1}); err != nil {
		t.Fatal(err)
	}
	if tr.Stats.DomShortcuts <= before {
		t.Fatal("dominance shortcut never fired")
	}
	// Wherever r1's negative halfspace covers a node, r2's must too; ranks
	// of live leaves must match brute force.
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 200; s++ {
		w := randSimplexPoint(rng, d-1)
		want := 1
		boundary := false
		for _, h := range []geom.Hyperplane{h1, h2} {
			switch h.Side(w, 1e-9) {
			case geom.Positive:
				want++
			case 0:
				boundary = true
			}
		}
		if boundary {
			continue
		}
		leaf := locate(tr, w)
		if got := tr.Rank(leaf); got != want {
			t.Fatalf("rank at %v = %d, want %d", w, got, want)
		}
	}
}

func TestWStarSkipsReduceTests(t *testing.T) {
	// Use a preference space above GeomMaxDim so the geometric classifier
	// stands down and the w* / LP machinery is exercised.
	rng := rand.New(rand.NewSource(11))
	d := GeomMaxDim + 2 // data dimensionality d, preference dim d-1 > GeomMaxDim
	tr := newTestTree(d-1, 1<<30)
	for i := 0; i < 10; i++ {
		if err := tr.Insert(randHyperplane(rng, i, d), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats.WStarSkips == 0 {
		t.Fatal("w* shortcut never fired across 10 insertions")
	}
	if tr.Stats.FeasibilityTests == 0 {
		t.Fatal("LP feasibility tests never ran above GeomMaxDim")
	}
}

func TestReportClosesLeaf(t *testing.T) {
	tr := newTestTree(2, 10)
	h := geom.NewHyperplaneTransformed(0, geom.Vector{1, 0, 0}, geom.Vector{0, 1, 0})
	if err := tr.Insert(h, nil); err != nil {
		t.Fatal(err)
	}
	var leaves []*Node
	tr.LiveLeaves(func(n *Node) bool { leaves = append(leaves, n); return true })
	tr.Report(leaves[0])
	if got := countLiveLeaves(tr); got != 1 {
		t.Fatalf("live leaves after report = %d, want 1", got)
	}
	tr.Report(leaves[1])
	if !tr.Done() {
		t.Fatal("tree with all leaves reported should be done")
	}
	// Inserting into a done tree is a no-op.
	if err := tr.Insert(geom.NewHyperplaneTransformed(1, geom.Vector{0.3, 0.9, 0.1}, geom.Vector{0.5, 0.5, 0.5}), nil); err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Splits != 1 {
		t.Fatal("insertion into done tree had an effect")
	}
}

func TestTakeFreshLeaves(t *testing.T) {
	tr := newTestTree(2, 10)
	fresh := tr.TakeFreshLeaves()
	if len(fresh) != 1 || fresh[0] != tr.Root {
		t.Fatalf("initial fresh leaves = %v", fresh)
	}
	h := geom.NewHyperplaneTransformed(0, geom.Vector{1, 0, 0}, geom.Vector{0, 1, 0})
	if err := tr.Insert(h, nil); err != nil {
		t.Fatal(err)
	}
	fresh = tr.TakeFreshLeaves()
	if len(fresh) != 2 {
		t.Fatalf("fresh leaves after split = %d, want 2", len(fresh))
	}
	if got := tr.TakeFreshLeaves(); len(got) != 0 {
		t.Fatalf("fresh leaves not cleared: %v", got)
	}
}

func TestPivotsAndNonPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tr := newTestTree(2, 1<<30)
	var hs []geom.Hyperplane
	for i := 0; i < 8; i++ {
		h := randHyperplane(rng, i, 3)
		hs = append(hs, h)
		if err := tr.Insert(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	var neg, pos []int
	tr.LiveLeaves(func(n *Node) bool {
		w := n.WStar
		if w == nil {
			// Root-only tree or untested node; skip.
			return true
		}
		neg, pos = tr.PivotSets(n, neg[:0], pos[:0])
		for _, h := range hs {
			side := h.Side(w, 1e-9)
			_, pivot := slices.BinarySearch(neg, h.ID)
			_, nonPivot := slices.BinarySearch(pos, h.ID)
			if side == geom.Negative && !pivot {
				t.Fatalf("h%d negative at leaf w* but not a pivot", h.ID)
			}
			if side == geom.Positive && !nonPivot {
				t.Fatalf("h%d positive at leaf w* but not a non-pivot", h.ID)
			}
		}
		if got := 1 + len(pos); got != tr.Rank(n) {
			t.Fatalf("1 + %d non-pivots, but Rank = %d", len(pos), tr.Rank(n))
		}
		return true
	})
}

// Every inserted hyperplane labels or covers exactly one node on each live
// leaf's root path, so PivotSets partitions the inserted ids; the appended
// runs are ascending and repeat-free, and the buffers' prefixes survive.
func TestPivotSetsCoverEveryInsertedHyperplane(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := newTestTree(2, 1<<30)
	const m = 10
	for i := 0; i < m; i++ {
		if err := tr.Insert(randHyperplane(rng, i, 3), nil); err != nil {
			t.Fatal(err)
		}
	}
	tr.LiveLeaves(func(n *Node) bool {
		neg, pos := tr.PivotSets(n, []int{-1}, []int{-2})
		if neg[0] != -1 || pos[0] != -2 {
			t.Fatalf("buffer prefixes clobbered: %v %v", neg, pos)
		}
		neg, pos = neg[1:], pos[1:]
		seen := map[int]bool{}
		for _, run := range [][]int{neg, pos} {
			for i, id := range run {
				if i > 0 && run[i-1] >= id {
					t.Fatalf("run %v not strictly ascending", run)
				}
				seen[id] = true
			}
		}
		if len(neg)+len(pos) != m || len(seen) != m {
			t.Fatalf("leaf sees %d+%d ids (%d distinct), want %d once each",
				len(neg), len(pos), len(seen), m)
		}
		return true
	})
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Low dimension: geometry decides cases.
	tr := newTestTree(2, 1<<30)
	for i := 0; i < 6; i++ {
		if err := tr.Insert(randHyperplane(rng, i, 3), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats.GeomDecides == 0 {
		t.Fatalf("geometric decisions not collected: %+v", tr.Stats)
	}
	if tr.CountNodes() != tr.Stats.NodesCreated {
		t.Fatalf("CountNodes %d != NodesCreated %d", tr.CountNodes(), tr.Stats.NodesCreated)
	}
	// High dimension: the LP machinery carries the stats.
	d := GeomMaxDim + 2
	tr = newTestTree(d-1, 1<<30)
	for i := 0; i < 6; i++ {
		if err := tr.Insert(randHyperplane(rng, i, d), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats.FeasibilityTests == 0 || tr.Stats.ConstraintRows == 0 {
		t.Fatalf("stats not collected: %+v", tr.Stats)
	}
	if tr.LPStats.Solves == 0 {
		t.Fatal("LP stats not threaded through")
	}
}

// Insertion order must not change the semantics of the maintained
// arrangement: for any weight vector, the rank read off the tree is the
// same regardless of the order hyperplanes arrived in.
func TestInsertionOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 3
	var hs []geom.Hyperplane
	for i := 0; i < 10; i++ {
		hs = append(hs, randHyperplane(rng, i, d))
	}
	build := func(order []int) *Tree {
		tr := newTestTree(d-1, 1<<30)
		for _, idx := range order {
			if err := tr.Insert(hs[idx], nil); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	fwd := make([]int, len(hs))
	rev := make([]int, len(hs))
	for i := range hs {
		fwd[i] = i
		rev[i] = len(hs) - 1 - i
	}
	shuf := append([]int(nil), fwd...)
	rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })

	trees := []*Tree{build(fwd), build(rev), build(shuf)}
	for s := 0; s < 300; s++ {
		w := randSimplexPoint(rng, d-1)
		onBoundary := false
		for _, h := range hs {
			if h.Side(w, 1e-9) == 0 {
				onBoundary = true
			}
		}
		if onBoundary {
			continue
		}
		want := trees[0].Rank(locate(trees[0], w))
		for ti, tr := range trees[1:] {
			if got := tr.Rank(locate(tr, w)); got != want {
				t.Fatalf("order %d: rank %d at %v, want %d", ti+1, got, w, want)
			}
		}
	}
}

// Property (testing/quick): for random records, the rank read off the tree
// at its own leaves' interior witnesses matches a brute-force score count.
func TestQuickTreeRankAtWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		d := 3
		p := geom.Vector{local.Float64(), local.Float64(), local.Float64()}
		tr := newTestTree(d-1, 1<<30)
		var recs []geom.Vector
		for i := 0; i < 8; i++ {
			r := geom.Vector{local.Float64(), local.Float64(), local.Float64()}
			h := geom.NewHyperplaneTransformed(i, r, p)
			if h.Kind != geom.Proper {
				continue
			}
			recs = append(recs, r)
			if err := tr.Insert(h, nil); err != nil {
				return false
			}
		}
		ok := true
		tr.LiveLeaves(func(n *Node) bool {
			if n.WStar == nil {
				return true
			}
			w := geom.Lift(n.WStar)
			want := 1
			for _, r := range recs {
				if r.Dot(w) > p.Dot(w) {
					want++
				}
			}
			if tr.Rank(n) != want {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
