// Package rtree implements the aggregate R-tree the paper uses as its data
// index (§6.2, citing the aR-tree of Papadias et al.): a spatial index whose
// internal entries carry, besides the minimum bounding rectangle, the number
// of records in their subtree. It supports the access patterns kSPR needs:
// branch-and-bound skyline (BBS) with exclusion sets, k-skyband extraction,
// top-k retrieval, dominance counting/existence queries, and a page-visit
// hook for the disk-resident scenario of Appendix A.
//
// Construction uses Sort-Tile-Recursive (STR) bulk loading, which is the
// standard way to build a static R-tree over a known dataset. Build packs
// the records into one dense row-major float64 array (Records[i] is a view
// into it), so the traversal inner loops in query.go stream flat memory
// instead of chasing per-record slice headers. The STR leaf order can be
// exported with LeafOrder and a structurally identical tree reassembled in
// O(n) with BuildFromOrder — the basis of the persisted-index warm start.
package rtree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/kernel"
)

// DefaultFanout is the default maximum number of entries per node; with
// ~4KB pages and d<=8 float64 MBRs this is a realistic page capacity.
const DefaultFanout = 64

// Tracker observes page visits; used by the disk simulation (Appendix A).
type Tracker interface {
	Visit(page int)
}

// Entry is a slot in a node: either a child pointer (internal nodes) with
// aggregate count, or a record reference (leaf nodes).
type Entry struct {
	Low, High geom.Vector // MBR corners (min-corner GL and max-corner GU)
	Count     int         // number of records in the subtree (1 for records)
	Child     *Node       // non-nil for internal entries
	RecordID  int         // valid for leaf entries
}

// Node is an R-tree node.
type Node struct {
	Leaf    bool
	Entries []Entry
	Page    int // sequential page ID for I/O accounting
}

// BandTable is a precomputed k-skyband summary of the indexed dataset:
// the ids of all records with fewer than K dominators, ascending, with
// their exact dominator counts. It is produced by KSkybandTable and held
// in the tree's band-table slot (see SetBand), so skyband queries with
// k <= K are served by a table scan instead of a BBS traversal — with
// results identical to the traversal by construction (the table is the
// traversal's output).
type BandTable struct {
	// K is the band depth the table was computed at.
	K int
	// IDs lists the member record ids in ascending order.
	IDs []int32
	// Cnt[i] is the exact number of records dominating IDs[i] (< K).
	Cnt []int32
}

// Tree is a bulk-loaded aggregate R-tree over a record set. Records are
// identified by their index in the backing slice.
type Tree struct {
	Dim     int
	Records []geom.Vector
	Root    *Node

	// band is the tree's band-table slot: a k-skyband summary of this
	// exact record set that serves skyband queries without a traversal.
	// A persisted table seeds it, or the first KSkybandExcluding fills
	// it. The tree is immutable otherwise, so the slot only ever deepens
	// and needs no invalidation; it is never carried across rebuilds.
	band atomic.Pointer[BandTable]

	// flat is the dense row-major backing of Records: flat[i*Dim+j] is
	// attribute j of record i.
	flat []float64

	fanout int
	pages  int
	// Aggregate records whether subtree counts were materialized. A plain
	// R-tree (Aggregate=false) is structurally identical but exposes no
	// counts; it exists to reproduce the index-construction comparison of
	// Appendix D.
	Aggregate bool

	tracker Tracker
}

// Option configures tree construction.
type Option func(*Tree)

// WithFanout sets the node capacity.
func WithFanout(f int) Option {
	return func(t *Tree) {
		if f >= 2 {
			t.fanout = f
		}
	}
}

// WithoutAggregates builds a plain R-tree (no subtree counts), matching the
// non-aggregate index of Appendix D. Queries that need counts will panic.
func WithoutAggregates() Option {
	return func(t *Tree) { t.Aggregate = false }
}

// newTree validates the record set, applies options, and packs the
// records into the tree's flat row-major backing array.
func newTree(records []geom.Vector, opts []Option) (*Tree, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("rtree: empty record set")
	}
	dim := len(records[0])
	for i, r := range records {
		if len(r) != dim {
			return nil, fmt.Errorf("rtree: record %d has %d dims, want %d", i, len(r), dim)
		}
	}
	t := &Tree{Dim: dim, fanout: DefaultFanout, Aggregate: true}
	for _, o := range opts {
		o(t)
	}
	t.flat = kernel.PackRows(records, dim)
	t.Records = make([]geom.Vector, len(records))
	for i := range t.Records {
		t.Records[i] = geom.Vector(t.flat[i*dim : (i+1)*dim : (i+1)*dim])
	}
	return t, nil
}

// Build bulk-loads an R-tree over records using STR.
func Build(records []geom.Vector, opts ...Option) (*Tree, error) {
	t, err := newTree(records, opts)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(t.Records))
	for i := range ids {
		ids[i] = i
	}
	groups := strTile(t.Records, ids, t.Dim, 0, t.fanout)
	t.assemble(groups)
	return t, nil
}

// LeafOrder exports the tree's STR leaf layout: the record ids in
// left-to-right leaf order, and the exclusive end offset of each leaf
// node's run within that order. Feeding both back into BuildFromOrder
// over the same record set reproduces this tree exactly.
func (t *Tree) LeafOrder() (order, groupEnds []int32) {
	order = make([]int32, 0, len(t.Records))
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf {
			for _, e := range n.Entries {
				order = append(order, int32(e.RecordID))
			}
			groupEnds = append(groupEnds, int32(len(order)))
			return
		}
		for _, e := range n.Entries {
			walk(e.Child)
		}
	}
	walk(t.Root)
	return order, groupEnds
}

// BuildFromOrder reassembles in O(n) the exact tree that Build produced,
// from a leaf layout previously exported by LeafOrder: same leaf
// grouping, same upper-level structure, same page numbering — so every
// query (and therefore every kSPR result) is byte-identical to the
// cold-built tree's. The layout is validated (a permutation of the
// record ids, strictly increasing group ends covering all records, no
// group over fanout); an invalid layout is an error, and callers fall
// back to a cold Build.
func BuildFromOrder(records []geom.Vector, order, groupEnds []int32, opts ...Option) (*Tree, error) {
	t, err := newTree(records, opts)
	if err != nil {
		return nil, err
	}
	n := len(t.Records)
	if len(order) != n {
		return nil, fmt.Errorf("rtree: leaf order has %d ids, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, id := range order {
		if id < 0 || int(id) >= n || seen[id] {
			return nil, fmt.Errorf("rtree: leaf order is not a permutation of the record ids")
		}
		seen[id] = true
	}
	if len(groupEnds) == 0 || int(groupEnds[len(groupEnds)-1]) != n {
		return nil, fmt.Errorf("rtree: leaf groups do not cover the record set")
	}
	prev := int32(0)
	for _, end := range groupEnds {
		if end <= prev || int(end-prev) > t.fanout {
			return nil, fmt.Errorf("rtree: invalid leaf group boundaries")
		}
		prev = end
	}
	groups := make([][]int, 0, len(groupEnds))
	start := 0
	for _, end := range groupEnds {
		g := make([]int, 0, int(end)-start)
		for _, id := range order[start:end] {
			g = append(g, int(id))
		}
		groups = append(groups, g)
		start = int(end)
	}
	t.assemble(groups)
	return t, nil
}

// assemble materializes the tree nodes from leaf-level record groups:
// one leaf per group (paged in order), then upper levels grouping
// consecutive nodes — they are already spatially clustered by the STR
// order. Build and BuildFromOrder share this phase, which is what makes
// the warm-rebuilt tree structurally identical to the cold one.
func (t *Tree) assemble(groups [][]int) {
	level := make([]*Node, 0, len(groups))
	for _, g := range groups {
		n := &Node{Leaf: true, Page: t.pages}
		t.pages++
		for _, id := range g {
			r := t.Records[id]
			n.Entries = append(n.Entries, Entry{
				Low: r, High: r, Count: 1, RecordID: id,
			})
		}
		level = append(level, n)
	}
	for len(level) > 1 {
		var next []*Node
		for i := 0; i < len(level); i += t.fanout {
			end := min(i+t.fanout, len(level))
			n := &Node{Page: t.pages}
			t.pages++
			for _, child := range level[i:end] {
				low, high, count := nodeMBR(child, t.Dim)
				if !t.Aggregate {
					count = 0
				}
				n.Entries = append(n.Entries, Entry{Low: low, High: high, Count: count, Child: child})
			}
			next = append(next, n)
		}
		level = next
	}
	t.Root = level[0]
}

// strTile recursively partitions ids into groups of at most cap records
// using the Sort-Tile-Recursive scheme starting at dimension dimIdx.
func strTile(records []geom.Vector, ids []int, dim, dimIdx, cap int) [][]int {
	if len(ids) <= cap {
		return [][]int{ids}
	}
	sort.Slice(ids, func(a, b int) bool {
		return records[ids[a]][dimIdx] < records[ids[b]][dimIdx]
	})
	if dimIdx == dim-1 {
		// Final dimension: chop into runs of cap.
		var out [][]int
		for i := 0; i < len(ids); i += cap {
			out = append(out, ids[i:min(i+cap, len(ids))])
		}
		return out
	}
	// Number of leaf pages we will eventually need, then slabs per this dim.
	pages := (len(ids) + cap - 1) / cap
	slabs := ceilPow(pages, dim-dimIdx)
	slabSize := (len(ids) + slabs - 1) / slabs
	var out [][]int
	for i := 0; i < len(ids); i += slabSize {
		out = append(out, strTile(records, ids[i:min(i+slabSize, len(ids))], dim, dimIdx+1, cap)...)
	}
	return out
}

// ceilPow returns ceil(n^(1/k)).
func ceilPow(n, k int) int {
	if k <= 1 {
		return n
	}
	lo, hi := 1, n
	for lo < hi {
		mid := (lo + hi) / 2
		p := 1
		over := false
		for i := 0; i < k; i++ {
			p *= mid
			if p >= n {
				over = true
				break
			}
		}
		if over {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func nodeMBR(n *Node, dim int) (geom.Vector, geom.Vector, int) {
	low := make(geom.Vector, dim)
	high := make(geom.Vector, dim)
	copy(low, n.Entries[0].Low)
	copy(high, n.Entries[0].High)
	count := 0
	for _, e := range n.Entries {
		for j := 0; j < dim; j++ {
			if e.Low[j] < low[j] {
				low[j] = e.Low[j]
			}
			if e.High[j] > high[j] {
				high[j] = e.High[j]
			}
		}
		count += e.Count
	}
	return low, high, count
}

// Band returns the table in the tree's band-table slot, or nil.
func (t *Tree) Band() *BandTable { return t.band.Load() }

// SetBand offers b for the tree's band-table slot and returns the table
// the slot holds afterwards: b, unless the slot already holds a table at
// least as deep, which it keeps. Only offer a table computed from this
// exact record set (see KSkybandTable). Safe for concurrent use with
// every query.
func (t *Tree) SetBand(b *BandTable) *BandTable {
	for {
		cur := t.band.Load()
		if cur != nil && cur.K >= b.K {
			return cur
		}
		if t.band.CompareAndSwap(cur, b) {
			return b
		}
	}
}

// SetTracker installs (or clears, with nil) a page-visit observer.
func (t *Tree) SetTracker(tr Tracker) { t.tracker = tr }

func (t *Tree) visit(n *Node) {
	if t.tracker != nil {
		t.tracker.Visit(n.Page)
	}
}

// Pages returns the total number of pages (nodes) in the tree.
func (t *Tree) Pages() int { return t.pages }

// Fanout returns the node capacity the tree was built with.
func (t *Tree) Fanout() int { return t.fanout }

// FlatRows returns the dense row-major backing array of the records:
// FlatRows()[i*Dim : (i+1)*Dim] is record i. Whole-dataset kernels (see
// internal/kernel) consume it directly.
func (t *Tree) FlatRows() []float64 { return t.flat }

// Height returns the number of levels.
func (t *Tree) Height() int {
	h := 1
	for n := t.Root; !n.Leaf; n = n.Entries[0].Child {
		h++
	}
	return h
}

// Len returns the number of indexed records.
func (t *Tree) Len() int { return len(t.Records) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
