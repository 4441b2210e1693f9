package obs

import (
	"runtime/debug"
	"runtime/metrics"
)

// RuntimeStats is one sample of Go runtime health: scheduler load, heap
// footprint, and GC pause tail.
type RuntimeStats struct {
	Goroutines     int64   `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	GCPauseP99Ms   float64 `json:"gc_pause_p99_ms"`
}

// runtime/metrics sample names the sampler reads. Heap in-use is the sum
// of live-object bytes and the unused tail of spans holding them — the
// same quantity runtime.MemStats calls HeapInuse.
const (
	rmGoroutines  = "/sched/goroutines:goroutines"
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmHeapUnused  = "/memory/classes/heap/unused:bytes"
	rmGCPauses    = "/sched/pauses/total/gc:seconds"
)

// RuntimeSampler reads Go runtime telemetry through runtime/metrics with a
// preallocated sample buffer, so periodic sampling does not itself churn
// the heap it is measuring. Not safe for concurrent use (one sampler
// goroutine owns it).
type RuntimeSampler struct {
	samples []metrics.Sample
}

// NewRuntimeSampler preallocates the sample set.
func NewRuntimeSampler() *RuntimeSampler {
	return &RuntimeSampler{samples: []metrics.Sample{
		{Name: rmGoroutines},
		{Name: rmHeapObjects},
		{Name: rmHeapUnused},
		{Name: rmGCPauses},
	}}
}

// Sample reads the current runtime stats. The GC pause p99 is computed
// from the runtime's cumulative pause histogram, so it reflects all pauses
// since process start rather than a recent window — good enough to spot a
// node whose pauses are structurally long.
func (r *RuntimeSampler) Sample() RuntimeStats {
	metrics.Read(r.samples)
	var st RuntimeStats
	for i := range r.samples {
		s := &r.samples[i]
		switch s.Name {
		case rmGoroutines:
			if s.Value.Kind() == metrics.KindUint64 {
				st.Goroutines = int64(s.Value.Uint64())
			}
		case rmHeapObjects, rmHeapUnused:
			if s.Value.Kind() == metrics.KindUint64 {
				st.HeapInuseBytes += s.Value.Uint64()
			}
		case rmGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				st.GCPauseP99Ms = histQuantileSeconds(s.Value.Float64Histogram(), 0.99) * 1000
			}
		}
	}
	return st
}

// histQuantileSeconds computes a nearest-rank quantile from a
// runtime/metrics Float64Histogram, returning the upper bucket bound in
// the histogram's own unit (seconds for pause histograms). Empty
// histograms return 0.
func histQuantileSeconds(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(NearestRank(int(total), q))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if c > 0 && seen >= rank {
			// Buckets[i+1] is the bucket's upper bound; the final bucket's
			// bound may be +Inf, in which case the lower bound is the best
			// finite answer.
			up := h.Buckets[i+1]
			if up > 1e18 || up != up { // +Inf or NaN guard
				up = h.Buckets[i]
			}
			return up
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// BuildInfo identifies the running binary: module version, Go toolchain,
// and the GOAMD64 microarchitecture level it was compiled for.
type BuildInfo struct {
	Version string `json:"version"`
	Go      string `json:"go"`
	GOAMD64 string `json:"goamd64"`
}

// ReadBuildInfo extracts BuildInfo from the binary's embedded build
// metadata. Fields that the build did not stamp come back as "unknown"
// (e.g. version outside a module build, GOAMD64 on other architectures).
func ReadBuildInfo() BuildInfo {
	info := BuildInfo{Version: "unknown", Go: "unknown", GOAMD64: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.Go = bi.GoVersion
	if v := bi.Main.Version; v != "" {
		info.Version = v
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "GOAMD64":
			info.GOAMD64 = s.Value
		case "vcs.revision":
			if info.Version == "unknown" || info.Version == "(devel)" {
				if len(s.Value) > 12 {
					info.Version = s.Value[:12]
				} else {
					info.Version = s.Value
				}
			}
		}
	}
	return info
}
