package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets is the serving layer's shared bucket layout for
// request-latency histograms: upper bounds in seconds on a 1–2.5–5 decade
// ladder from 100µs to 60s. Every endpoint uses the same layout so
// cross-endpoint quantiles compare bucket-for-bucket.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram with lock-free Observe
// (two atomic adds per sample: its bucket and the sum). Bucket i counts
// samples ≤ Bounds[i]; a final implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumNs  atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (seconds). A nil or empty bounds slice selects DefaultLatencyBuckets.
// The slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if s <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sumNs.Add(int64(d))
}

// Snapshot returns a point-in-time copy of the histogram's state.
// Concurrent Observes may straddle the copy, so SumNs and the bucket
// counts can disagree by in-flight samples.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		SumNs:  h.sumNs.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// CopyCounts copies the per-bucket counts into dst without allocating,
// returning how many buckets were copied (min of len(dst) and the bucket
// count, bounds plus the +Inf bucket). The sampler's alternative to
// Snapshot.
func (h *Histogram) CopyCounts(dst []uint64) int {
	n := len(h.counts)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = h.counts[i].Load()
	}
	return n
}

// SumNs returns the sum of all observations in nanoseconds.
func (h *Histogram) SumNs() int64 { return h.sumNs.Load() }

// HistSnapshot is an immutable copy of a Histogram, suitable for
// quantile estimation and exposition without holding up writers.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Counts has one extra
	// trailing element for the +Inf bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64
	Counts []uint64
	// SumNs is the sum of all observations in nanoseconds.
	SumNs int64
}

// Total sums the bucket counts: the histogram's sample count.
func (s HistSnapshot) Total() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile estimates the p-quantile (p in [0,1]) as the upper bound of
// the bucket holding the nearest-rank sample, in seconds. Samples landing
// in the +Inf bucket report the largest finite bound (the histogram can't
// resolve beyond its range). An empty snapshot reports 0.
func (s HistSnapshot) Quantile(p float64) float64 {
	total := s.Total()
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := uint64(NearestRank(int(total), p))
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// NearestRank is the repo's one quantile rank rule: the 1-based rank
// ⌈p·n⌉ of the p-quantile among n ordered samples, clamped to [1, n], or 0
// when n is 0. The p-quantile of an ascending slice s is
// s[NearestRank(len(s), p)-1]; histogram quantiles walk their cumulative
// bucket counts to the same rank.
func NearestRank(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	r := math.Ceil(p * float64(n))
	if !(r >= 1) { // also catches NaN
		return 1
	}
	if r > float64(n) {
		return n
	}
	return int(r)
}
