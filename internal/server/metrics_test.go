package server

import (
	"testing"
	"time"
)

// BenchmarkMetricsObserveParallel measures the per-request metrics
// record under parallel load. Every request of every endpoint passes
// through Observe, which is a few atomic adds with no lock and no clock
// read.
func BenchmarkMetricsObserveParallel(b *testing.B) {
	m := NewMetrics()
	d := 3 * time.Millisecond
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Observe("kspr", d, 200)
		}
	})
}
