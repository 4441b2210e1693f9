package rtree

import (
	"container/heap"
	"sort"

	"repro/internal/geom"
	"repro/internal/kernel"
)

// ExcludeFunc filters records out of a query; nil means exclude nothing.
type ExcludeFunc func(id int) bool

// entryHeap orders entries by descending key (max-heap on key).
type heapItem struct {
	entry Entry
	key   float64
}

type entryHeap []heapItem

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].key > h[j].key }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Skyline returns the IDs of the records not dominated by any other record,
// considering only records for which exclude(id) is false. It is the
// branch-and-bound skyline (BBS) of Papadias et al. adapted to "larger is
// better" semantics: entries are processed in decreasing order of the
// coordinate sum of their max-corner, which guarantees every potential
// dominator of a record is examined before the record itself.
func (t *Tree) Skyline(exclude ExcludeFunc) []int {
	var sky []int
	band := kernel.NewBand(t.Dim)
	h := &entryHeap{}
	t.visit(t.Root)
	for _, e := range t.Root.Entries {
		heap.Push(h, heapItem{e, e.High.Sum()})
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		e := it.entry
		if band.AnyDominates(e.High) {
			continue
		}
		if e.Child != nil {
			t.visit(e.Child)
			for _, ce := range e.Child.Entries {
				if !band.AnyDominates(ce.High) {
					heap.Push(h, heapItem{ce, ce.High.Sum()})
				}
			}
			continue
		}
		if exclude != nil && exclude(e.RecordID) {
			continue
		}
		r := t.Records[e.RecordID]
		if !band.AnyDominates(r) {
			sky = append(sky, e.RecordID)
			band.Push(r)
		}
	}
	sort.Ints(sky)
	return sky
}

// KSkyband returns the IDs of records dominated by fewer than k others
// (again honouring exclude). It generalizes Skyline (k=1). Counting only
// skyband dominators is exact by transitivity: a pruned dominator itself
// has >= k skyband dominators, which also dominate the candidate.
//
// When no exclusion filter is given and the tree's band-table slot holds
// a table deep enough for k, the answer is read straight off the table —
// the table is a previous traversal's output over the identical tree, so
// the served ids match a live traversal exactly. KSkyband reads the slot
// but never fills it: filling costs a deeper traversal than asked for.
func (t *Tree) KSkyband(k int, exclude ExcludeFunc) []int {
	if k <= 0 {
		return nil
	}
	if b := t.Band(); exclude == nil && b != nil && k <= b.K {
		return t.readBand(b, k, -1)
	}
	band, _ := t.kSkybandScan(k, exclude)
	return band
}

// KSkybandExcluding returns the k-skyband of the dataset with the single
// record focalID removed, the exclusion every kSPR query needs (the
// focal record does not compete with itself). A negative focalID
// excludes nothing. The answer is read from the tree's band table, which
// the first call fills at depth k+1 unless the slot already holds a
// table deeper than k; every later query on the tree is a table scan.
func (t *Tree) KSkybandExcluding(k, focalID int) []int {
	if k <= 0 {
		return nil
	}
	b := t.Band()
	if b == nil || b.K <= k {
		b = t.SetBand(t.KSkybandTable(k + 1))
	}
	return t.readBand(b, k, focalID)
}

// readBand derives from table b (deeper than k, or as deep as k when
// focalID names no record) the k-skyband with record focalID removed, in
// ascending id order. The discount rule is exact: removing the focal
// lowers a record's dominator count by one iff the focal dominates it,
// so only members with exactly k dominators can enter the band — and a
// table deeper than k holds all of them.
func (t *Tree) readBand(b *BandTable, k, focalID int) []int {
	var focal geom.Vector
	if focalID >= 0 && focalID < len(t.Records) {
		focal = t.Records[focalID]
	}
	band := make([]int, 0, len(b.IDs))
	for i, id := range b.IDs {
		cnt := int(b.Cnt[i])
		switch {
		case int(id) == focalID:
		case cnt < k, cnt == k && focal != nil && geom.Dominates(focal, t.Records[id]):
			band = append(band, int(id))
		}
	}
	return band
}

// KSkybandTable runs the k-skyband traversal and returns the members
// with their exact dominator counts. Counting against the band-so-far is
// exact for admitted members: any dominator of a member has strictly
// fewer dominators itself (its dominators all dominate the member too),
// hence is in the band, and its strictly larger coordinate sum means the
// BBS order admitted it first. The band-table slot is filled from it.
func (t *Tree) KSkybandTable(k int) *BandTable {
	ids, cnts := t.kSkybandScan(k, nil)
	b := &BandTable{K: k, IDs: make([]int32, len(ids)), Cnt: cnts}
	for i, id := range ids {
		b.IDs[i] = int32(id)
	}
	return b
}

// kSkybandScan is the shared BBS k-skyband traversal, returning members
// sorted ascending with their dominator counts.
func (t *Tree) kSkybandScan(k int, exclude ExcludeFunc) ([]int, []int32) {
	var ids []int
	var cnts []int32
	band := kernel.NewBand(t.Dim)
	h := &entryHeap{}
	t.visit(t.Root)
	for _, e := range t.Root.Entries {
		heap.Push(h, heapItem{e, e.High.Sum()})
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		e := it.entry
		if band.CountDominatorsCapped(e.High, k) >= k {
			continue
		}
		if e.Child != nil {
			t.visit(e.Child)
			for _, ce := range e.Child.Entries {
				if band.CountDominatorsCapped(ce.High, k) < k {
					heap.Push(h, heapItem{ce, ce.High.Sum()})
				}
			}
			continue
		}
		if exclude != nil && exclude(e.RecordID) {
			continue
		}
		r := t.Records[e.RecordID]
		if c := band.CountDominatorsCapped(r, k); c < k {
			ids = append(ids, e.RecordID)
			cnts = append(cnts, int32(c))
			band.Push(r)
		}
	}
	sort.Sort(&bandByID{ids, cnts})
	return ids, cnts
}

// bandByID sorts parallel id/count slices by ascending record id.
type bandByID struct {
	ids  []int
	cnts []int32
}

func (b *bandByID) Len() int           { return len(b.ids) }
func (b *bandByID) Less(i, j int) bool { return b.ids[i] < b.ids[j] }
func (b *bandByID) Swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.cnts[i], b.cnts[j] = b.cnts[j], b.cnts[i]
}

// TopK returns the k record IDs with the highest scores under weight vector
// w (original d-dimensional weights), best first. Branch-and-bound on the
// max-corner score.
func (t *Tree) TopK(w geom.Vector, k int, exclude ExcludeFunc) []int {
	if k <= 0 {
		return nil
	}
	type scored struct {
		id    int
		score float64
	}
	var result []scored
	h := &entryHeap{}
	t.visit(t.Root)
	for _, e := range t.Root.Entries {
		heap.Push(h, heapItem{e, e.High.Dot(w)})
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if len(result) >= k && it.key <= result[len(result)-1].score {
			break // no remaining entry can beat the current k-th score
		}
		e := it.entry
		if e.Child != nil {
			t.visit(e.Child)
			for _, ce := range e.Child.Entries {
				heap.Push(h, heapItem{ce, ce.High.Dot(w)})
			}
			continue
		}
		if exclude != nil && exclude(e.RecordID) {
			continue
		}
		s := t.Records[e.RecordID].Dot(w)
		result = append(result, scored{e.RecordID, s})
		sort.Slice(result, func(a, b int) bool { return result[a].score > result[b].score })
		if len(result) > k {
			result = result[:k]
		}
	}
	ids := make([]int, len(result))
	for i, s := range result {
		ids[i] = s.id
	}
	return ids
}

// Dominators returns the IDs of records that dominate p (honouring
// exclude). A subtree is pruned when its max-corner fails to cover p,
// since then no record inside can dominate p.
func (t *Tree) Dominators(p geom.Vector, exclude ExcludeFunc) []int {
	var out []int
	var walk func(n *Node)
	walk = func(n *Node) {
		t.visit(n)
		for _, e := range n.Entries {
			if !coversOrEqual(e.High, p) {
				continue
			}
			if e.Child != nil {
				walk(e.Child)
				continue
			}
			if exclude != nil && exclude(e.RecordID) {
				continue
			}
			if geom.Dominates(t.Records[e.RecordID], p) {
				out = append(out, e.RecordID)
			}
		}
	}
	walk(t.Root)
	sort.Ints(out)
	return out
}

// CountDominators returns the number of records that dominate p, capped
// at limit: the walk stops once limit dominators are counted, so asking
// whether p has at least limit dominators costs no more than finding
// them. A subtree whose min-corner dominates p holds only dominators of
// p and is counted whole from its aggregate count; one whose max-corner
// fails to cover p is pruned.
func (t *Tree) CountDominators(p geom.Vector, limit int) int {
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		t.visit(n)
		for _, e := range n.Entries {
			if count >= limit {
				return
			}
			switch {
			case !coversOrEqual(e.High, p):
			case e.Child == nil:
				if geom.Dominates(t.Records[e.RecordID], p) {
					count++
				}
			case t.Aggregate && geom.Dominates(e.Low, p):
				count += e.Count
			default:
				walk(e.Child)
			}
		}
	}
	if limit > 0 {
		walk(t.Root)
	}
	return min(count, limit)
}

// coversOrEqual reports x >= y in every dimension.
func coversOrEqual(x, y geom.Vector) bool {
	for i, v := range x {
		if v < y[i] {
			return false
		}
	}
	return true
}
