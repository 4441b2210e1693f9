package rtree

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Patch returns the tree over records, the next generation of t's
// record set, derived from t copy-on-write instead of bulk-loaded.
//
// records lists the next generation in dense id order: t's records
// without the ids in deleted, each remaining id shifted down by the
// number of deleted ids below it, the records at the ids in updated
// replaced, and inserted new records appended last. deleted and updated
// are t's dense ids, each strictly ascending, and the two are disjoint.
//
// A leaf of t that holds a deleted or updated record, or a record whose
// id a delete shifts, is copied without those records and with the rest
// renumbered. Every other leaf is shared with t, together with the MBR
// and count of the entry that points at it. Each updated and inserted
// record then joins the leaf whose MBR grows least, found by descending
// t from the root, and a leaf past the fanout splits in two along its
// widest axis. Emptied leaves are dropped, and stack builds fresh upper
// levels over the leaf sequence, so the result is the tree that
// BuildFromOrder assembles from its LeafOrder, page ids aside.
//
// The cost is O(n) to pack records plus, per changed or shifted record,
// one descent of t. A copied leaf owns its coordinates, so a leaf that a
// later patch shares keeps no record array alive but the one Build
// packed. t is never written: queries on it may run during Patch.
func (t *Tree) Patch(records []geom.Vector, deleted, updated []int, inserted int) (*Tree, error) {
	n := t.Len()
	for _, ids := range [][]int{deleted, updated} {
		for i, id := range ids {
			if id < 0 || id >= n || (i > 0 && id <= ids[i-1]) {
				return nil, fmt.Errorf("rtree: patch ids must ascend strictly within [0, %d)", n)
			}
		}
	}
	for _, id := range updated {
		if _, ok := slices.BinarySearch(deleted, id); ok {
			return nil, fmt.Errorf("rtree: record %d both updated and deleted", id)
		}
	}
	if inserted < 0 || len(records) != n-len(deleted)+inserted {
		return nil, fmt.Errorf("rtree: patch leaves %d records, got %d", n-len(deleted)+max(inserted, 0), len(records))
	}
	nt, err := newTree(records, nil)
	if err != nil {
		return nil, err
	}
	if nt.Dim != t.Dim {
		return nil, fmt.Errorf("rtree: patch records have %d dims, tree has %d", nt.Dim, t.Dim)
	}
	nt.fanout, nt.Aggregate, nt.nextPage = t.fanout, t.Aggregate, t.nextPage

	p := &patcher{old: t, t: nt, deleted: deleted, updated: updated, copies: map[int][]*leafBuf{}}
	// The leaves to copy hold an updated record, or a deleted one or
	// one whose id a delete shifts: any id from the lowest deleted on.
	touched := slices.Clone(updated)
	if len(deleted) > 0 {
		for id := deleted[0]; id < n; id++ {
			touched = append(touched, id)
		}
	}
	for _, id := range touched {
		li := t.leafOf(id)
		if li < 0 {
			return nil, fmt.Errorf("rtree: record %d is in no leaf", id)
		}
		p.copyLeaf(li)
	}
	for _, id := range updated {
		p.add(p.renumber(id))
	}
	for id := len(records) - inserted; id < len(records); id++ {
		p.add(id)
	}

	copied := slices.Sorted(maps.Keys(p.copies))
	level := make([]Entry, 0, len(t.leafLevel))
	for li, e := range t.leafLevel {
		if len(copied) == 0 || copied[0] != li {
			level = append(level, e)
			continue
		}
		copied = copied[1:]
		for _, b := range p.copies[li] {
			if len(b.node.Entries) == 0 {
				continue
			}
			b.node.Page = nt.nextPage
			nt.nextPage++
			level = append(level, nt.entryOf(b.node))
		}
	}
	nt.stack(level)
	return nt, nil
}

// patcher carries one Patch: the parent old, the tree t being derived,
// and copies, the leaves that replace old's leaf li, left to right.
type patcher struct {
	old, t           *Tree
	deleted, updated []int
	copies           map[int][]*leafBuf
}

// leafBuf is a leaf Patch writes: the node, and the fanout × Dim block
// of coordinates its entries view.
type leafBuf struct {
	node   *Node
	coords []float64
}

// renumber maps an id of old that survives the patch to its id in t.
func (p *patcher) renumber(id int) int { return id - sort.SearchInts(p.deleted, id) }

// newLeaf returns an empty leaf with room for fanout records.
func (p *patcher) newLeaf() *leafBuf {
	f := p.t.fanout
	return &leafBuf{
		node:   &Node{Leaf: true, Entries: make([]Entry, 0, f)},
		coords: make([]float64, f*p.t.Dim),
	}
}

// put appends record id at v to the leaf, copying v into its block.
func (b *leafBuf) put(id int, v geom.Vector) {
	k, d := len(b.node.Entries), len(v)
	c := geom.Vector(b.coords[k*d : (k+1)*d : (k+1)*d])
	copy(c, v)
	b.node.Entries = append(b.node.Entries, Entry{Low: c, High: c, Count: 1, RecordID: id})
}

// copyLeaf returns the leaves that replace old's leaf li, making the
// first copy of it on the first call: its records less the deleted and
// updated ones, renumbered.
func (p *patcher) copyLeaf(li int) []*leafBuf {
	if bufs, ok := p.copies[li]; ok {
		return bufs
	}
	b := p.newLeaf()
	for _, e := range p.old.leafLevel[li].Child.Entries {
		_, del := slices.BinarySearch(p.deleted, e.RecordID)
		_, upd := slices.BinarySearch(p.updated, e.RecordID)
		if !del && !upd {
			id := p.renumber(e.RecordID)
			b.put(id, p.t.Records[id])
		}
	}
	bufs := []*leafBuf{b}
	p.copies[li] = bufs
	return bufs
}

// add places record id of t: into the copy of old's leaf that
// chooseLeaf picks, or, once that leaf has split, into whichever of its
// replacements grows least; a full leaf splits first.
func (p *patcher) add(id int) {
	v := p.t.Records[id]
	li := p.old.chooseLeaf(v)
	bufs := p.copyLeaf(li)
	i := 0
	for j := 1; j < len(bufs); j++ {
		if bufs[j].growth(v).less(bufs[i].growth(v)) {
			i = j
		}
	}
	b := bufs[i]
	if len(b.node.Entries) < p.t.fanout {
		b.put(id, v)
		return
	}
	lo, hi := p.split(b, id, v)
	p.copies[li] = slices.Replace(bufs, i, i+1, lo, hi)
}

// split divides a full leaf's records plus record id at v between two
// new leaves: sorted stably along the axis where their MBR is widest
// (the lowest such axis), the first half to lo and the rest to hi.
func (p *patcher) split(b *leafBuf, id int, v geom.Vector) (lo, hi *leafBuf) {
	es := append(slices.Clone(b.node.Entries), Entry{Low: v, High: v, Count: 1, RecordID: id})
	axis, widest := 0, -1.0
	for j := 0; j < p.t.Dim; j++ {
		low, high := es[0].Low[j], es[0].Low[j]
		for _, e := range es[1:] {
			low, high = min(low, e.Low[j]), max(high, e.Low[j])
		}
		if high-low > widest {
			axis, widest = j, high-low
		}
	}
	slices.SortStableFunc(es, func(a, b Entry) int { return cmp.Compare(a.Low[axis], b.Low[axis]) })
	lo, hi = p.newLeaf(), p.newLeaf()
	half := len(es) / 2
	for i, e := range es {
		if i < half {
			lo.put(e.RecordID, e.Low)
		} else {
			hi.put(e.RecordID, e.Low)
		}
	}
	return lo, hi
}

// growth is how much a box grows to take in a point: its volume's and
// its margin's (the sum of its extents) increase, and its volume before.
type growth struct{ volume, margin, size float64 }

// growthOf returns the growth of the box [low, high] to take in v.
func growthOf(low, high, v geom.Vector) growth {
	var g growth
	size, grown := 1.0, 1.0
	for j, x := range v {
		ext := high[j] - low[j]
		next := max(high[j], x) - min(low[j], x)
		size *= ext
		grown *= next
		g.margin += next - ext
	}
	g.volume, g.size = grown-size, size
	return g
}

// less orders growths for choosing a box: least volume growth, then
// least margin growth (which still tells boxes apart where some extent
// is zero), then the smaller box.
func (g growth) less(h growth) bool {
	if g.volume != h.volume {
		return g.volume < h.volume
	}
	if g.margin != h.margin {
		return g.margin < h.margin
	}
	return g.size < h.size
}

// growth returns the leaf's growth to take in v; the leaf is not empty.
func (b *leafBuf) growth(v geom.Vector) growth {
	low, high, _ := nodeMBR(b.node, len(v))
	return growthOf(low, high, v)
}

// chooseLeaf returns the index in t.leafLevel of the leaf a new record
// at v joins: from the root down, the child entry that grows least. The
// index follows from the path, since stack groups each level's nodes
// into runs of fanout: child i of the node at index idx on its level is
// at index idx·fanout + i on the level below.
func (t *Tree) chooseLeaf(v geom.Vector) int {
	idx := 0
	for n := t.Root; !n.Leaf; {
		best := 0
		bestG := growthOf(n.Entries[0].Low, n.Entries[0].High, v)
		for i := 1; i < len(n.Entries); i++ {
			if g := growthOf(n.Entries[i].Low, n.Entries[i].High, v); g.less(bestG) {
				best, bestG = i, g
			}
		}
		idx = idx*t.fanout + best
		n = n.Entries[best].Child
	}
	return idx
}

// leafOf returns the index in t.leafLevel of the leaf that holds record
// id, or -1 when none does: a point query on the record's coordinates
// that follows every entry whose MBR contains them, indexing leaves as
// chooseLeaf does.
func (t *Tree) leafOf(id int) int {
	r := t.Records[id]
	var find func(n *Node, idx int) int
	find = func(n *Node, idx int) int {
		if n.Leaf {
			for _, e := range n.Entries {
				if e.RecordID == id {
					return idx
				}
			}
			return -1
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			if geom.WeakDominates(r, e.Low) && geom.WeakDominates(e.High, r) {
				if li := find(e.Child, idx*t.fanout+i); li >= 0 {
					return li
				}
			}
		}
		return -1
	}
	return find(t.Root, 0)
}
