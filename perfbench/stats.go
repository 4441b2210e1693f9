package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the percentile tail_ms
// reports, so the tail is never set by one or two outliers.
const tailBeyond = 10

// quantile is the nearest-rank p-quantile of sorted samples: the sample
// at rank ceil(p*n), clamped to [1, n] — the rule obs.HistSnapshot.Quantile
// uses on its buckets. An empty input reports 0.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailRank picks tail_ms's percentile for n samples: the highest nearest
// rank with at least tailBeyond samples beyond it, i.e. rank n-tailBeyond,
// as the percentile rank/n. Below tailBeyond+1 samples no rank qualifies;
// it then reports the maximum (rank n, percentile 1) and ok=false.
func tailRank(n int) (rank int, p float64, ok bool) {
	if n <= 0 {
		return 0, 0, false
	}
	if n <= tailBeyond {
		return n, 1, false
	}
	rank = n - tailBeyond
	return rank, float64(rank) / float64(n), true
}

// tail is the tail_ms value of sorted samples with the percentile and the
// number of samples beyond it, for the run record.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"samples_beyond"`
	Samples    int     `json:"samples"`
}

func tailOf(sorted []float64) tail {
	rank, p, _ := tailRank(len(sorted))
	if rank == 0 {
		return tail{}
	}
	return tail{Value: sorted[rank-1], Percentile: p, Beyond: len(sorted) - rank, Samples: len(sorted)}
}

// median is the nearest-rank median.
func median(sorted []float64) float64 { return quantile(sorted, 0.5) }

// sortedCopy returns the samples in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects per-class operation latencies in milliseconds.
type latencies map[string][]float64

func (l latencies) add(class string, d time.Duration) { l[class] = append(l[class], ms(d)) }

// all returns every class's samples in one ascending slice.
func (l latencies) all() []float64 {
	var out []float64
	for _, xs := range l {
		out = append(out, xs...)
	}
	sort.Float64s(out)
	return out
}

// p50 is the nearest-rank median of one class.
func (l latencies) p50(class string) float64 { return median(sortedCopy(l[class])) }

// medianDuration times fn reps times and returns the median in seconds.
func medianDuration(reps int, fn func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(sortedCopy(xs)), nil
}
