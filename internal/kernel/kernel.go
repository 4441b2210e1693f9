// Package kernel provides the flat-array dominance kernels behind the
// large-n hot paths: R-tree skyline/k-skyband filtering and the
// progressive dominance graph.
//
// The package exists because the naive representation — a slice of
// per-record []float64 slices — costs one pointer chase per record per
// comparison, which dominates the inner loops once n outgrows the cache.
// Kernels here operate on dense flat layouts instead:
//
//   - row-major: vals[i*d+j] is attribute j of record i — the layout the
//     R-tree packs its records into, and the layout the accumulating
//     band scratch (Band) uses;
//   - column-major (attribute-major): cols[j*n+i] — the layout Matrix
//     uses for whole-dataset scans, where a pass per attribute streams
//     sequentially through memory.
//
// Inner loops are branch-light: dominance is evaluated with comparison
// counters (compiled to conditional moves on amd64, and to wider vector
// forms under GOAMD64=v3) rather than data-dependent early branches, and
// early exits happen only at record granularity.
//
// Contract: every kernel must agree exactly — on NaN-free input — with
// the reference semantics of geom.Dominates and geom.Compare ("larger is
// better": no smaller in every dimension, strictly larger in at least
// one, compared without epsilon). The property tests in this package pin
// that agreement on randomized and adversarially tied datasets.
package kernel

// PackRows copies the given records into one dense row-major backing
// array: out[i*d : (i+1)*d] holds record i. It panics if a record's
// length differs from d; callers validate dimensionality first.
func PackRows[V ~[]float64](recs []V, d int) []float64 {
	flat := make([]float64, len(recs)*d)
	for i, r := range recs {
		if len(r) != d {
			panic("kernel: record length mismatch in PackRows")
		}
		copy(flat[i*d:(i+1)*d], r)
	}
	return flat
}

// dominatesFlat reports whether row a dominates row x, both length-d
// flat slices, matching geom.Dominates exactly. The comparison-counter
// form keeps the loop body branch-light.
func dominatesFlat(a, x []float64, d int) bool {
	ge, gt := 0, 0
	for j := 0; j < d; j++ {
		av, xv := a[j], x[j]
		if av >= xv {
			ge++
		}
		if av > xv {
			gt++
		}
	}
	return ge == d && gt > 0
}

// Band is a grow-only accumulator of flat row-major records used by the
// R-tree skyline/k-skyband traversals: records join the band as they are
// reported, and every candidate entry is tested against the band so far.
// The flat backing replaces the []geom.Vector accumulation the loops
// used before, so membership tests stream through one contiguous array.
type Band struct {
	d    int
	n    int
	vals []float64
}

// NewBand returns an empty band for d-dimensional records.
func NewBand(d int) *Band { return &Band{d: d} }

// Reset empties the band, retaining its backing array.
func (b *Band) Reset() {
	b.n = 0
	b.vals = b.vals[:0]
}

// Len returns the number of records in the band.
func (b *Band) Len() int { return b.n }

// Push appends a record (length must be the band's dimensionality).
func (b *Band) Push(v []float64) {
	if len(v) != b.d {
		panic("kernel: record length mismatch in Band.Push")
	}
	b.vals = append(b.vals, v...)
	b.n++
}

// Row returns the i-th record in the band as a view into the backing
// array.
func (b *Band) Row(i int) []float64 {
	return b.vals[i*b.d : (i+1)*b.d]
}

// AnyDominates reports whether any band member dominates x.
func (b *Band) AnyDominates(x []float64) bool {
	d := b.d
	for off := 0; off < len(b.vals); off += d {
		if dominatesFlat(b.vals[off:off+d], x, d) {
			return true
		}
	}
	return false
}

// CountDominatorsCapped returns the number of band members dominating x,
// capped at limit: once limit dominators are found the scan stops, so
// comparisons against the cap (the k of a k-skyband) remain exact while
// deep non-members exit early.
func (b *Band) CountDominatorsCapped(x []float64, limit int) int {
	d := b.d
	count := 0
	for off := 0; off < len(b.vals); off += d {
		if dominatesFlat(b.vals[off:off+d], x, d) {
			count++
			if count >= limit {
				return count
			}
		}
	}
	return count
}

// Matrix is a column-major (attribute-major) view of an n x d dataset:
// Cols[j*N+i] is attribute j of record i. Whole-dataset kernels stream
// one attribute at a time, touching memory sequentially.
type Matrix struct {
	// N is the number of records, D the number of attributes.
	N, D int
	// Cols holds the attribute-major data, length N*D.
	Cols []float64
}

// NewMatrix transposes dense row-major data (rows[i*d+j], as produced by
// PackRows) into a column-major Matrix.
func NewMatrix(rows []float64, n, d int) *Matrix {
	if len(rows) != n*d {
		panic("kernel: row data length mismatch in NewMatrix")
	}
	cols := make([]float64, n*d)
	for i := 0; i < n; i++ {
		base := i * d
		for j := 0; j < d; j++ {
			cols[j*n+i] = rows[base+j]
		}
	}
	return &Matrix{N: n, D: d, Cols: cols}
}

// CountDominators returns the number of records in the matrix that
// dominate x, excluding the record index exclude (pass a negative index
// to exclude nothing). The scan runs one column at a time over byte
// masks, so each pass is a sequential stream with no per-record pointer
// chase.
func (m *Matrix) CountDominators(x []float64, exclude int, scratch *MaskScratch) int {
	if len(x) != m.D {
		panic("kernel: query length mismatch in CountDominators")
	}
	n := m.N
	ge, gt := scratch.masks(n)
	for i := range ge {
		ge[i] = 1
		gt[i] = 0
	}
	for j := 0; j < m.D; j++ {
		col := m.Cols[j*n : (j+1)*n]
		xv := x[j]
		for i, cv := range col {
			if cv < xv {
				ge[i] = 0
			}
			if cv > xv {
				gt[i] = 1
			}
		}
	}
	count := 0
	for i := 0; i < n; i++ {
		if i != exclude && ge[i]&gt[i] == 1 {
			count++
		}
	}
	return count
}

// MaskScratch holds the reusable per-record byte masks for Matrix scans,
// so repeated queries allocate nothing.
type MaskScratch struct {
	ge, gt []byte
}

// masks returns the two n-length mask slices, growing them on demand.
func (s *MaskScratch) masks(n int) ([]byte, []byte) {
	if cap(s.ge) < n {
		s.ge = make([]byte, n)
		s.gt = make([]byte, n)
	}
	return s.ge[:n], s.gt[:n]
}

// CompareResult mirrors geom.DomRelation for flat rows without importing
// geom: 0 none, 1 first dominates, 2 second dominates, 3 equal.
type CompareResult int

// The flat-comparison outcomes, numerically aligned with
// geom.DomNone/DomFirst/DomSecond/DomEqual.
const (
	// CmpNone means neither row dominates the other.
	CmpNone CompareResult = iota
	// CmpFirst means the first row dominates the second.
	CmpFirst
	// CmpSecond means the second row dominates the first.
	CmpSecond
	// CmpEqual means the rows are component-wise identical.
	CmpEqual
)

// CompareFlat classifies the dominance relation between two length-d
// flat rows, matching geom.Compare exactly.
func CompareFlat(a, b []float64, d int) CompareResult {
	aBetter, bBetter := 0, 0
	for j := 0; j < d; j++ {
		av, bv := a[j], b[j]
		if av > bv {
			aBetter = 1
		}
		if av < bv {
			bBetter = 1
		}
	}
	switch {
	case aBetter == 1 && bBetter == 1:
		return CmpNone
	case aBetter == 1:
		return CmpFirst
	case bBetter == 1:
		return CmpSecond
	default:
		return CmpEqual
	}
}
