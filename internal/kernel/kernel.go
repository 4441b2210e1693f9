// Package kernel provides the flat-array dominance kernels behind the
// large-n hot paths: R-tree skyline/k-skyband filtering and the
// per-record candidate bitsets of P-CTA's reportability test.
//
// The package exists because the naive representation — a slice of
// per-record []float64 slices — costs one pointer chase per record per
// comparison, which dominates the inner loops once n outgrows the cache.
// Kernels here operate on one dense row-major layout instead:
// vals[i*d+j] is attribute j of record i — the layout the R-tree packs
// its records into, the layout the accumulating band scratch (Band)
// uses, and the layout a P-CTA query packs its candidates into once.
//
// Inner loops are branch-light: dominance is evaluated with comparison
// counters (compiled to conditional moves on amd64, and to wider vector
// forms under GOAMD64=v3) rather than data-dependent early branches, and
// early exits happen only at record granularity.
//
// Contract: every kernel must agree exactly — on NaN-free input — with
// the reference semantics of geom.Dominates ("larger is better": no
// smaller in every dimension, strictly larger in at least one, compared
// without epsilon). The property tests in this package pin that
// agreement on randomized and adversarially tied datasets.
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

// DominatedBits overwrites every word of dst with one bit per row of the
// row-major rows: bit i%64 of dst[i/64] is set iff v dominates row i.
// Words past the last row come out zero.
func DominatedBits(rows []float64, d int, v []float64, dst []uint64) {
	for w := range dst {
		var word uint64
		off := w * 64 * d
		end := min(off+64*d, len(rows))
		for b := 0; off < end; b, off = b+1, off+d {
			if dominatesFlat(v, rows[off:off+d], d) {
				word |= 1 << b
			}
		}
		dst[w] = word
	}
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
