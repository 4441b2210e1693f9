// Package rtree implements the aggregate R-tree the paper uses as its data
// index (§6.2, citing the aR-tree of Papadias et al.): a spatial index whose
// internal entries carry, besides the minimum bounding rectangle, the number
// of records in their subtree. It supports the access patterns kSPR needs:
// branch-and-bound skyline (BBS) with exclusion sets, k-skyband extraction,
// top-k retrieval, dominance counting/existence queries, and a page-visit
// hook for the disk-resident scenario of Appendix A.
//
// Construction uses Sort-Tile-Recursive (STR) bulk loading, which is the
// standard way to build a static R-tree over a known dataset, in time
// linear in the record count: tiling is d stable radix sorts of the record
// ids, one per axis, and one assembly pass then fills the nodes. Build
// packs the records into one dense row-major float64 array (Records[i] is
// a view into it), so tiling and the traversal inner loops in query.go
// stream flat memory instead of chasing per-record slice headers. The STR
// leaf order can be exported with LeafOrder and a structurally identical
// tree reassembled in O(n) with BuildFromOrder — the basis of the
// persisted-index warm start.
package rtree

import (
	"fmt"
	"math"
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
	// The first KSkybandExcluding fills it. The tree is immutable
	// otherwise, so the slot only ever deepens and needs no
	// invalidation; it is never carried across rebuilds.
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
	if len(records) > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: %d records exceed the int32 record ids", len(records))
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

// Build bulk-loads an R-tree over records using STR (see strTile), then
// assembles it (see assemble). Tiling costs d stable radix sorts of the
// record ids, each a fixed number of linear passes, so the whole build is
// linear in the record count. Records tied on an axis keep their order
// from the level above, id order at the top, so the tree is a pure
// function of records; no query answer depends on how ties are grouped.
func Build(records []geom.Vector, opts ...Option) (*Tree, error) {
	t, err := newTree(records, opts)
	if err != nil {
		return nil, err
	}
	n := len(t.Records)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	ends := t.strTile(order, 0, 0, make([]slot, 2*n), make([]int32, 0, (n+t.fanout-1)/t.fanout))
	t.assemble(order, ends)
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
	t.assemble(order, groupEnds)
	return t, nil
}

// assemble materializes the tree from a leaf layout: order lists the
// record ids left to right, and groupEnds[g] is the exclusive end of
// leaf g's run in order. The leaves are paged first, in order; each upper
// level then groups runs of fanout consecutive nodes of the level below
// (they are already spatially clustered by the STR order) and is paged
// after it. Build and BuildFromOrder share this phase, which is what
// makes the warm-rebuilt tree structurally identical to the cold one.
//
// All leaf entries come from one []Entry and all nodes of a level from
// one []Node. Each leaf's Entries is capacity-clipped, so an append never
// spills into its neighbour.
func (t *Tree) assemble(order, groupEnds []int32) {
	level := make([]Node, len(groupEnds))
	entries := make([]Entry, len(order))
	start := int32(0)
	for g, end := range groupEnds {
		es := entries[start:end:end]
		for i, id := range order[start:end] {
			r := t.Records[id]
			es[i] = Entry{Low: r, High: r, Count: 1, RecordID: int(id)}
		}
		level[g] = Node{Leaf: true, Entries: es, Page: g}
		start = end
	}
	t.pages = len(level)
	for len(level) > 1 {
		next := make([]Node, (len(level)+t.fanout-1)/t.fanout)
		for i := range next {
			children := level[i*t.fanout : min((i+1)*t.fanout, len(level))]
			es := make([]Entry, len(children))
			for j := range children {
				low, high, count := nodeMBR(&children[j], t.Dim)
				if !t.Aggregate {
					count = 0
				}
				es[j] = Entry{Low: low, High: high, Count: count, Child: &children[j]}
			}
			next[i] = Node{Entries: es, Page: t.pages}
			t.pages++
		}
		level = next
	}
	t.Root = &level[0]
}

// slot is one record in strTile's radix sort: the order-preserving key
// of its coordinate on the axis being sorted, and its id.
type slot struct {
	key uint64
	id  int32
}

// strTile tiles order, a run of record ids that starts at offset base of
// the whole leaf order, into leaf groups of at most fanout records by
// Sort-Tile-Recursive packing from axis axis on. It permutes order in
// place and appends the exclusive end of each group, as an offset into
// the whole order, to ends.
//
// Each level sorts its run by the axis coordinate, read from t.flat,
// with radixSort. scratch, twice the record count long, backs every
// level's sort: a level finishes its sort before its slabs recurse, so
// the whole recursion shares it.
//
// Tie rule: the sort is stable, so records with equal coordinates on an
// axis keep the order of the level above, which is id order at the top
// level. −0 and +0, equal under <, are one more tie case: their keys put
// −0 just below +0. NaN never gets here; every public entry point
// rejects it (geom.CheckFinite). The grouping is a pure function of the
// input. On tie-free input it equals any comparison sort's; on ties it
// may differ from an unstable sort's, which is deterministic too but
// arbitrary. No query answer depends on the grouping: every query
// returns sorted ids or exact counts.
func (t *Tree) strTile(order []int32, base, axis int, scratch []slot, ends []int32) []int32 {
	n, f := len(order), t.fanout
	if n <= f {
		return append(ends, int32(base+n))
	}
	keys, tmp := scratch[:n], scratch[n:2*n]
	for i, id := range order {
		keys[i] = slot{sortKey(t.flat[int(id)*t.Dim+axis]), id}
	}
	for i, s := range radixSort(keys, tmp) {
		order[i] = s.id
	}
	if axis == t.Dim-1 {
		// Final axis: chop into runs of fanout.
		for i := f; i < n; i += f {
			ends = append(ends, int32(base+i))
		}
		return append(ends, int32(base+n))
	}
	// Number of leaf pages this run needs, then slabs along this axis.
	pages := (n + f - 1) / f
	slabs := ceilPow(pages, t.Dim-axis)
	size := (n + slabs - 1) / slabs
	for i := 0; i < n; i += size {
		ends = t.strTile(order[i:min(i+size, n)], base+i, axis+1, scratch, ends)
	}
	return ends
}

// sortKey maps f to a uint64 whose unsigned order is f's order: a
// negative float has every bit flipped, a non-negative one only its sign
// bit. −0 maps just below +0.
func sortKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSort stably sorts a by key, least-significant byte first, moving
// the slots between a and tmp (of equal length) on each pass, and
// returns whichever of the two holds the result. One counting pass fills
// all eight byte histograms; a byte that every key shares has nothing to
// sort and its pass is skipped.
func radixSort(a, tmp []slot) []slot {
	var count [8][256]int32
	for _, s := range a {
		k := s.key
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	src, dst := a, tmp
	for p := range count {
		shift := uint(8 * p)
		c := &count[p]
		if int(c[byte(src[0].key>>shift)]) == len(src) {
			continue
		}
		var sum int32
		for i, m := range c {
			c[i] = sum
			sum += m
		}
		for _, s := range src {
			b := byte(s.key >> shift)
			dst[c[b]] = s
			c[b]++
		}
		src, dst = dst, src
	}
	return src
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
