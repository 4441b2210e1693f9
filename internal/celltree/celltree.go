// Package celltree implements the CellTree of §4: a binary tree that
// incrementally maintains the arrangement of record hyperplanes in
// preference space. Cells (leaves) are represented implicitly by the
// halfspaces along their root path; only for preference spaces of up to
// GeomMaxDim dimensions does a node also carry exact geometry, clipped
// from its parent's at every split (geometry.go). The insertion algorithm
// implements the three cases of §4.3, the inconsequential-halfspace
// elimination of Lemma 2 (feasibility tests see only root-path labels plus
// the space boundaries), the cached interior-point shortcut of §4.3.2, and
// the dominance-graph shortcut of P-CTA (Algorithm 2, optInsert).
//
// Insertion optionally fans out across goroutines: when a hyperplane cuts
// through an internal node (case III), its two child subtrees are disjoint,
// so with a Forks token budget attached the positive subtree is handed to a
// fresh goroutine while the current one descends the negative side. Each
// task carries its own DFS state, LP solver and counters, and joins merge
// child results in negative-before-positive order, so the resulting tree,
// the fresh-leaf order and every statistic are identical to a serial
// insert. Only one Insert may run at a time; parallelism is *within* an
// insertion, never across insertions.
package celltree

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/lp"
)

// sideTol is the tolerance for classifying a cached interior point against
// a new hyperplane. Points farther than this from the hyperplane prove that
// the corresponding side of the cell is non-empty.
const sideTol = 1e-9

// Node is a CellTree node. Leaves correspond to arrangement cells; internal
// nodes to unions of cells. Geometry is implicit: the cell is the
// intersection of the halfspaces labelling the edges from the root, and the
// cover set records halfspaces that fully contain the node (Lemma 2: those
// never bound it).
type Node struct {
	// Label is the halfspace on the edge from the parent; undefined for the
	// root (HasLabel false).
	Label    geom.Halfspace
	HasLabel bool

	Parent   *Node
	Neg, Pos *Node // children; both nil for a leaf

	// Cover holds halfspaces inserted after this node's creation that fully
	// contain it (cases I and II).
	Cover []geom.Halfspace

	// Pruned marks nodes whose rank exceeded the threshold (or whose
	// subtree died entirely). Reported marks leaves already emitted to the
	// result (progressive reporting); they take no further part in
	// processing but are not discarded.
	Pruned   bool
	Reported bool
	// closed caches "no live leaf below": Pruned/Reported, or both
	// children closed. It is atomic because sibling subtree tasks of a
	// parallel insert may close concurrently and race to propagate closure
	// through their shared ancestors.
	closed atomic.Bool

	// WStar is a cached strictly-interior point of the node's region
	// (§4.3.2); never nil for nodes created by a split.
	WStar geom.Vector

	// Geom is the node's exact geometry, maintained incrementally for
	// low-dimensional preference spaces (see geometry.go); nil when
	// unavailable, in which case all decisions use LP feasibility tests.
	Geom *CellGeom
}

// IsLeaf reports whether the node is a leaf (an arrangement cell).
func (n *Node) IsLeaf() bool { return n.Neg == nil && n.Pos == nil }

// Closed reports whether no live leaf remains below the node.
func (n *Node) Closed() bool { return n.closed.Load() }

// Stats counts CellTree activity; the paper reports several of these as
// side metrics (Figs. 11, 17).
type Stats struct {
	NodesCreated     int // total nodes ever created
	Splits           int // leaf splits (case III at a leaf)
	FeasibilityTests int // LP feasibility tests issued
	WStarSkips       int // case tests skipped thanks to a cached w*
	DomShortcuts     int // case II decided by a processed dominator (optInsert)
	GeomDecides      int // cases decided by exact vertex geometry
	ConstraintRows   int // total constraint rows across feasibility tests
}

// Add accumulates o into s; insertion tasks count into task-local Stats and
// merge them at joins, so totals equal a serial run's regardless of how the
// work was split.
func (s *Stats) Add(o Stats) {
	s.NodesCreated += o.NodesCreated
	s.Splits += o.Splits
	s.FeasibilityTests += o.FeasibilityTests
	s.WStarSkips += o.WStarSkips
	s.DomShortcuts += o.DomShortcuts
	s.GeomDecides += o.GeomDecides
	s.ConstraintRows += o.ConstraintRows
}

// Forks is the fork-token budget of a parallel tree operation: a tree with
// a Forks of n tokens may run up to n extra goroutines beyond the caller's.
// A single Forks may be shared by several trees — the batch engine in
// internal/core attaches one pool to every query of a batch, so insertion
// fan-out capacity freed by a finished query migrates to its siblings.
// Tokens are claimed with a non-blocking TryAcquire at case-III internal
// nodes — when none is free the subtree is processed inline, which makes
// the schedule adaptive (work-stealing in effect: idle capacity is soaked
// up by whichever task next reaches a fork point) without any queueing.
type Forks struct {
	tokens chan struct{}
}

// NewForks returns a budget of n extra-goroutine tokens; n <= 0 yields a
// budget that never grants (equivalent to a nil *Forks).
func NewForks(n int) *Forks {
	if n <= 0 {
		return nil
	}
	f := &Forks{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		f.tokens <- struct{}{}
	}
	return f
}

// TryAcquire claims a fork token without blocking; a nil receiver never
// grants.
func (f *Forks) TryAcquire() bool {
	if f == nil {
		return false
	}
	select {
	case <-f.tokens:
		return true
	default:
		return false
	}
}

// Release returns a token claimed by TryAcquire.
func (f *Forks) Release() {
	f.tokens <- struct{}{}
}

// Tree is a CellTree over a preference space of dimension Dim with boundary
// constraints Bounds. K is the pruning threshold: nodes whose rank exceeds
// K are eliminated.
type Tree struct {
	Dim    int
	Bounds []geom.Constraint
	K      int

	Root *Node

	// FreshLeaves collects leaves created since the last call to
	// TakeFreshLeaves; LP-CTA computes rank bounds for exactly these
	// (§6.4's batch strategy).
	FreshLeaves []*Node

	Stats   Stats
	LPStats *lp.Stats

	// Forks, when non-nil, lets Insert fan disjoint cell subtrees out
	// across extra goroutines (see the package comment); nil keeps
	// insertion single-threaded as in the paper.
	Forks *Forks

	// PrunedCells counts subtrees eliminated by the top-k rank bound
	// (Algorithm 1 lines 12-13 and look-ahead prunes). It is the one
	// counter insertion tasks share directly — a lock-free atomic rather
	// than a task-local merge — so concurrent subtree tasks and the
	// coordinating goroutine can all observe pruning progress live.
	PrunedCells atomic.Int64

	// solver is the root insertion task's reusable LP workspace; forked
	// tasks draw theirs from the package-level solver pool, so arenas
	// survive across forks and inserts instead of being rebuilt per task.
	solver *lp.Solver
}

// solverPool shares LP workspaces across every cell tree in the process:
// a tree lives for one kSPR query, and without the shared pool each
// query rebuilt its simplex arenas from scratch — a dominant source of
// GC pressure at large candidate counts.
var solverPool sync.Pool

// takeSolver hands a pooled task solver out, rebound to the task's stats.
func (t *Tree) takeSolver(stats *lp.Stats) *lp.Solver {
	if sv, ok := solverPool.Get().(*lp.Solver); ok {
		sv.SetStats(stats)
		return sv
	}
	return lp.NewSolver(stats)
}

// putSolver returns a task solver to the pool once its task has finished.
func (t *Tree) putSolver(sv *lp.Solver) {
	sv.SetStats(nil)
	solverPool.Put(sv)
}

// ReleaseSolvers returns the tree's root solver to the shared pool. Call
// it when the tree is done with insertions (end of query); the tree
// remains usable, lazily re-acquiring a solver if needed.
func (t *Tree) ReleaseSolvers() {
	if t.solver != nil {
		t.putSolver(t.solver)
		t.solver = nil
	}
}

// New creates a CellTree whose root covers the whole preference space.
// interior must be a strictly interior point of the space (e.g. the simplex
// barycenter); it seeds the root's cached w*.
func New(dim, k int, bounds []geom.Constraint, interior geom.Vector, lpStats *lp.Stats) *Tree {
	t := &Tree{
		Dim:     dim,
		Bounds:  bounds,
		K:       k,
		Root:    &Node{WStar: interior.Clone()},
		LPStats: lpStats,
	}
	if dim <= GeomMaxDim {
		t.Root.Geom = BuildCellGeom(bounds, dim)
	}
	t.Stats.NodesCreated = 1
	t.FreshLeaves = append(t.FreshLeaves, t.Root)
	if k <= 0 {
		t.Root.Pruned = true
		t.Root.closed.Store(true)
	}
	return t
}

// insertCtx carries the DFS state of one insertion task. The root Insert
// call owns one; every forked subtree task gets a deep copy of the
// path-dependent state plus fresh accumulators, so tasks never share
// mutable memory (the lone exceptions: the tree's atomic closure flags and
// the atomic prune counter).
type insertCtx struct {
	h geom.Hyperplane
	// domIDs are records known to dominate the record of h (nil for CTA);
	// if any of them contributes a negative halfspace on the current path,
	// h's negative halfspace covers the node (Lemma 4 / optInsert). Never
	// mutated during the insert, so tasks share it.
	domIDs []int
	// cons = Bounds + labels on the current path (the Lemma-2 constraint
	// set for the current node).
	cons []geom.Constraint
	// pos = number of positive halfspaces on the current path (labels and
	// cover sets above and including the current node as we descend).
	pos int
	// domNeg = number of negative halfspaces on the current path whose
	// record is in domIDs; the dominance shortcut fires while it is > 0.
	domNeg int
	// stats / lpStats are the task-local counters; solver the task's
	// reusable LP workspace (accounting into lpStats).
	stats   Stats
	lpStats lp.Stats
	solver  *lp.Solver
	// fresh collects the leaves this task created, in DFS order; joins
	// concatenate negative-side before positive-side so the merged order
	// equals the serial insertion order.
	fresh []*Node
}

// forkTask snapshots ctx for a subtree handed to another goroutine: the
// path state is deep-copied (the parent keeps pushing/popping its own) and
// the accumulators start empty. The caller attaches a pooled solver.
func (ctx *insertCtx) forkTask() *insertCtx {
	return &insertCtx{
		h:      ctx.h,
		domIDs: ctx.domIDs,
		cons:   append([]geom.Constraint(nil), ctx.cons...),
		pos:    ctx.pos,
		domNeg: ctx.domNeg,
	}
}

// join merges a finished subtree task back into its parent.
func (ctx *insertCtx) join(o *insertCtx) {
	ctx.stats.Add(o.stats)
	ctx.lpStats.Add(o.lpStats)
	ctx.fresh = append(ctx.fresh, o.fresh...)
}

// Insert adds the hyperplane h to the arrangement. domIDs optionally lists
// processed records that dominate h's record (P-CTA's dominance-graph
// shortcut); pass nil to disable. Insert only reads domIDs, and the caller
// must not change it before Insert returns. With t.Forks attached the
// insertion fans out over cell subtrees; the outcome is identical either
// way. Insert itself must not be called concurrently.
func (t *Tree) Insert(h geom.Hyperplane, domIDs []int) error {
	if h.Kind != geom.Proper {
		return fmt.Errorf("celltree: inserting non-proper hyperplane %v (kind %d)", h, h.Kind)
	}
	if t.Root.closed.Load() {
		return nil
	}
	ctx := &insertCtx{
		h:      h,
		domIDs: domIDs,
		cons:   append([]geom.Constraint(nil), t.Bounds...),
	}
	if t.solver == nil {
		t.solver = t.takeSolver(nil)
	}
	t.solver.SetStats(&ctx.lpStats)
	ctx.solver = t.solver
	err := t.insert(t.Root, ctx)
	// Merge the task tree's accumulators (even on error: partial counts
	// mirror what a serial run would have recorded before failing).
	t.Stats.Add(ctx.stats)
	if t.LPStats != nil {
		t.LPStats.Add(ctx.lpStats)
	}
	t.FreshLeaves = append(t.FreshLeaves, ctx.fresh...)
	return err
}

func (t *Tree) insert(n *Node, ctx *insertCtx) error {
	if n.closed.Load() {
		return nil
	}
	// Push this node's label and cover set onto the DFS state.
	savedCons, savedPos, savedDomNeg := len(ctx.cons), ctx.pos, ctx.domNeg
	pushHalfspaces(ctx, n)
	defer func() {
		ctx.cons = ctx.cons[:savedCons]
		ctx.pos = savedPos
		ctx.domNeg = savedDomNeg
	}()

	// Rank-based elimination (Algorithm 1 lines 12-13).
	if 1+ctx.pos > t.K {
		t.kill(n)
		return nil
	}

	// Dominance-graph shortcut: a processed dominator's negative halfspace
	// on the path implies case II outright.
	if ctx.domNeg > 0 {
		n.Cover = append(n.Cover, geom.Halfspace{H: ctx.h, Sign: geom.Negative})
		ctx.stats.DomShortcuts++
		return nil
	}

	var negWitness, posWitness geom.Vector
	negFeasible, posFeasible := false, false
	decided := false

	// Geometric classification: with the node's exact vertices at hand, the
	// hyperplane's side is read off the vertex evaluations in O(|Verts|).
	// Ambiguous margins fall through to the LP tests below.
	if n.Geom != nil {
		lo, hi := n.Geom.EvalRange(ctx.h)
		const margin = 10 * geomTol
		switch {
		case lo > margin:
			negFeasible, posFeasible, decided = false, true, true
			ctx.stats.GeomDecides++
		case hi < -margin:
			negFeasible, posFeasible, decided = true, false, true
			ctx.stats.GeomDecides++
		case lo < -margin && hi > margin:
			negFeasible, posFeasible, decided = true, true, true
			ctx.stats.GeomDecides++
		}
	}

	if !decided {
		// Classify against the cached interior point to skip one
		// feasibility test (§4.3.2).
		side := geom.Sign(0)
		if n.WStar != nil {
			side = ctx.h.Side(n.WStar, sideTol)
			if side != 0 {
				ctx.stats.WStarSkips++
			}
		}
		switch side {
		case geom.Negative:
			negFeasible, negWitness = true, n.WStar
			posFeasible, posWitness = t.testSide(ctx, geom.Positive)
		case geom.Positive:
			posFeasible, posWitness = true, n.WStar
			negFeasible, negWitness = t.testSide(ctx, geom.Negative)
		default:
			negFeasible, negWitness = t.testSide(ctx, geom.Negative)
			posFeasible, posWitness = t.testSide(ctx, geom.Positive)
			if n.WStar == nil {
				// Record the very first feasible witness (§4.3.2).
				if negFeasible {
					n.WStar = negWitness
				} else if posFeasible {
					n.WStar = posWitness
				}
			}
		}
	}

	switch {
	case !negFeasible && !posFeasible:
		// The node itself has zero extent; it should never have been
		// created. Defensive: kill it.
		t.kill(n)
		return nil
	case !negFeasible:
		// Case I: N inside h+.
		n.Cover = append(n.Cover, geom.Halfspace{H: ctx.h, Sign: geom.Positive})
		ctx.pos++ // account for the fresh positive before the rank check
		if 1+ctx.pos > t.K {
			t.kill(n)
		}
		return nil
	case !posFeasible:
		// Case II: N inside h-.
		n.Cover = append(n.Cover, geom.Halfspace{H: ctx.h, Sign: geom.Negative})
		return nil
	}

	// Case III: h cuts through N.
	if n.IsLeaf() {
		t.split(n, ctx, negWitness, posWitness)
		// The positive child starts with one more positive halfspace; prune
		// it immediately if it is already over budget.
		if 1+ctx.pos+1 > t.K {
			t.kill(n.Pos)
		}
		return nil
	}
	// The two child subtrees are disjoint: fan the positive side out to
	// another goroutine when a fork token is free, descend the negative
	// side here, and merge neg-before-pos so the result is order-identical
	// to the serial recursion.
	if t.Forks.TryAcquire() {
		posCtx := ctx.forkTask()
		posCtx.solver = t.takeSolver(&posCtx.lpStats)
		done := make(chan error, 1)
		go func() {
			defer t.Forks.Release()
			err := t.insert(n.Pos, posCtx)
			t.putSolver(posCtx.solver)
			done <- err
		}()
		negErr := t.insert(n.Neg, ctx)
		posErr := <-done
		ctx.join(posCtx)
		if negErr != nil {
			return negErr
		}
		if posErr != nil {
			return posErr
		}
	} else {
		if err := t.insert(n.Neg, ctx); err != nil {
			return err
		}
		if err := t.insert(n.Pos, ctx); err != nil {
			return err
		}
	}
	if n.Neg.closed.Load() && n.Pos.closed.Load() {
		n.closed.Store(true)
	}
	return nil
}

// pushHalfspaces folds n's label and cover set into the DFS state.
func pushHalfspaces(ctx *insertCtx, n *Node) {
	if n.HasLabel {
		ctx.cons = append(ctx.cons, n.Label.AsConstraint())
		pushSign(ctx, n.Label)
	}
	for _, hs := range n.Cover {
		pushSign(ctx, hs)
	}
}

// pushSign counts hs toward the path's positive halfspaces or, when it is
// the negative halfspace of one of h's dominators, toward domNeg.
func pushSign(ctx *insertCtx, hs geom.Halfspace) {
	if hs.Sign == geom.Positive {
		ctx.pos++
	} else if slices.Contains(ctx.domIDs, hs.H.ID) {
		ctx.domNeg++
	}
}

// testSide runs the Lemma-2 feasibility test for N ∩ h^sign on the task's
// own LP solver.
func (t *Tree) testSide(ctx *insertCtx, sign geom.Sign) (bool, geom.Vector) {
	hs := geom.Halfspace{H: ctx.h, Sign: sign}
	cons := append(ctx.cons, hs.AsConstraint())
	ctx.stats.FeasibilityTests++
	ctx.stats.ConstraintRows += len(cons)
	in, err := ctx.solver.FeasibleInterior(cons, t.Dim)
	if err != nil {
		// An LP failure here means severe numerical trouble; treat the side
		// as empty, which only makes the result coarser, never wrong for
		// well-conditioned inputs.
		return false, nil
	}
	return in.Feasible, in.Point
}

// split turns leaf n into an internal node with two children labelled h-
// and h+ (case III at a leaf; both sides are known non-empty, no test
// needed). Child geometry is derived from the parent's by one cut each;
// witnesses default to child centroids when geometry is available.
func (t *Tree) split(n *Node, ctx *insertCtx, negWitness, posWitness geom.Vector) {
	h := ctx.h
	n.Neg = &Node{
		Label:    geom.Halfspace{H: h, Sign: geom.Negative},
		HasLabel: true,
		Parent:   n,
		WStar:    negWitness,
	}
	n.Pos = &Node{
		Label:    geom.Halfspace{H: h, Sign: geom.Positive},
		HasLabel: true,
		Parent:   n,
		WStar:    posWitness,
	}
	if n.Geom != nil {
		n.Neg.Geom = n.Geom.Cut(n.Neg.Label.AsConstraint(), t.Dim)
		n.Pos.Geom = n.Geom.Cut(n.Pos.Label.AsConstraint(), t.Dim)
		if n.Neg.WStar == nil && n.Neg.Geom != nil {
			n.Neg.WStar = n.Neg.Geom.Centroid()
		}
		if n.Pos.WStar == nil && n.Pos.Geom != nil {
			n.Pos.WStar = n.Pos.Geom.Centroid()
		}
	}
	ctx.stats.NodesCreated += 2
	ctx.stats.Splits++
	ctx.fresh = append(ctx.fresh, n.Neg, n.Pos)
}

// kill prunes n's whole subtree and propagates closure upward.
func (t *Tree) kill(n *Node) {
	n.Pruned = true
	t.PrunedCells.Add(1)
	t.markClosed(n)
}

// Report marks a leaf as emitted to the result and propagates closure.
func (t *Tree) Report(n *Node) {
	n.Reported = true
	t.markClosed(n)
}

// Prune eliminates a node (and its subtree) from further consideration,
// e.g. when look-ahead rank bounds disqualify it (§6.1).
func (t *Tree) Prune(n *Node) { t.kill(n) }

// markClosed closes n and propagates closure up through ancestors whose
// both children are closed. Concurrent calls from sibling subtree tasks are
// safe: the stores are sequentially consistent, so whichever sibling's
// store lands last observes the other side closed and completes the
// propagation.
func (t *Tree) markClosed(n *Node) {
	n.closed.Store(true)
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Neg.closed.Load() && p.Pos.closed.Load() {
			p.closed.Store(true)
		} else {
			break
		}
	}
}

// Done reports whether no live leaves remain.
func (t *Tree) Done() bool { return t.Root.closed.Load() }

// LiveLeaves calls fn for every leaf that is neither pruned nor reported.
// fn returning false stops the walk.
func (t *Tree) LiveLeaves(fn func(*Node) bool) {
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.closed.Load() {
			return true
		}
		if n.IsLeaf() {
			if n.Pruned || n.Reported {
				return true
			}
			return fn(n)
		}
		return walk(n.Neg) && walk(n.Pos)
	}
	walk(t.Root)
}

// TakeFreshLeaves returns the live leaves created since the last call and
// resets the collection buffer.
func (t *Tree) TakeFreshLeaves() []*Node {
	fresh := t.FreshLeaves
	t.FreshLeaves = nil
	out := fresh[:0]
	for _, n := range fresh {
		if n.IsLeaf() && !n.closed.Load() {
			out = append(out, n)
		}
	}
	return out
}

// Rank computes the rank of node n: one plus the number of positive
// halfspaces among the labels and cover sets on the path from the root
// (Lemma 1 / Algorithm 1's Rank routine).
func (t *Tree) Rank(n *Node) int {
	pos := 0
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.HasLabel && cur.Label.Sign == geom.Positive {
			pos++
		}
		for _, hs := range cur.Cover {
			if hs.Sign == geom.Positive {
				pos++
			}
		}
	}
	return 1 + pos
}

// PathConstraints returns the Lemma-2 constraint set of n: the space
// boundaries plus the halfspaces labelling the path from the root. This is
// the set used for feasibility tests, score bounds, and finalization.
func (t *Tree) PathConstraints(n *Node) []geom.Constraint {
	var labels []geom.Constraint
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.HasLabel {
			labels = append(labels, cur.Label.AsConstraint())
		}
	}
	out := make([]geom.Constraint, 0, len(t.Bounds)+len(labels))
	out = append(out, t.Bounds...)
	for i := len(labels) - 1; i >= 0; i-- {
		out = append(out, labels[i])
	}
	return out
}

// PivotSets appends to neg the distinct ids of the records contributing
// negative halfspaces to n's full halfspace set (labels plus cover sets
// from the root down, c.Ψ of §4) — the cell's pivots (§5) — and to pos the
// distinct ids of those contributing positive ones, each appended run
// ascending. It reads n's root path once; callers reuse the buffers across
// leaves.
func (t *Tree) PivotSets(n *Node, neg, pos []int) ([]int, []int) {
	negFrom, posFrom := len(neg), len(pos)
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.HasLabel {
			neg, pos = appendSigned(neg, pos, cur.Label)
		}
		for _, hs := range cur.Cover {
			neg, pos = appendSigned(neg, pos, hs)
		}
	}
	return sortedUnique(neg, negFrom), sortedUnique(pos, posFrom)
}

// appendSigned appends hs's record id to neg or pos by its sign.
func appendSigned(neg, pos []int, hs geom.Halfspace) ([]int, []int) {
	switch hs.Sign {
	case geom.Negative:
		neg = append(neg, hs.H.ID)
	case geom.Positive:
		pos = append(pos, hs.H.ID)
	}
	return neg, pos
}

// sortedUnique sorts ids[from:] and drops its repeats.
func sortedUnique(ids []int, from int) []int {
	run := ids[from:]
	slices.Sort(run)
	return ids[:from+len(slices.Compact(run))]
}

// CountNodes returns the number of nodes currently in the tree (live and
// dead); the paper plots this as "nodes in CellTree" (Fig. 11b).
func (t *Tree) CountNodes() int {
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		count++
		walk(n.Neg)
		walk(n.Pos)
	}
	walk(t.Root)
	return count
}
