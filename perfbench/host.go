package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostRecord describes the machine and build a run measured, so a figure
// is never read without its CPU count and load.
type hostRecord struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	LoadAvgFrom string `json:"loadavg_start"`
	LoadAvgTo   string `json:"loadavg_end"`
	// StealPct is the share of CPU time the hypervisor took from this
	// machine's vCPUs during the run, from /proc/stat (-1 where absent).
	// On a shared host it explains most run-to-run spread.
	StealPct float64 `json:"steal_pct"`

	cpuFrom []int64
}

func newHostRecord() hostRecord {
	return hostRecord{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		LoadAvgFrom: loadAvg(),
		cpuFrom:     cpuTimes(),
	}
}

// finish records the end-of-run load and the steal share.
func (h *hostRecord) finish() {
	h.LoadAvgTo = loadAvg()
	h.StealPct = -1
	to := cpuTimes()
	if len(h.cpuFrom) < 8 || len(to) < 8 {
		return
	}
	var total int64
	for i := 0; i < 8; i++ { // guest time is already in user
		total += to[i] - h.cpuFrom[i]
	}
	if total > 0 {
		h.StealPct = 100 * float64(to[7]-h.cpuFrom[7]) / float64(total)
	}
}

// cpuTimes is /proc/stat's aggregate cpu line: user, nice, system, idle,
// iowait, irq, softirq, steal, ... in clock ticks (nil off Linux).
func cpuTimes() []int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, 0, len(f)-1)
	for _, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// commit is the source revision run.sh read from the checkout's git
// metadata, or "unknown" for a tree without it (an exported checkout).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// loadAvg is /proc/loadavg's first three fields ("" off Linux).
func loadAvg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(raw))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// writtenBytes is /proc/self/io's wchar: every byte this process has
// passed to write-like system calls, files and sockets alike. Deltas
// around a phase that writes nothing but store files measure the store's
// write volume.
func writtenBytes() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// memDelta is the Go runtime's allocation and GC activity between two
// reads, summed over any number of measured stretches.
type memDelta struct {
	allocBytes uint64
	gcs        uint32
	ms         runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.ms) }

func (m *memDelta) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.allocBytes += now.TotalAlloc - m.ms.TotalAlloc
	m.gcs += now.NumGC - m.ms.NumGC
}

// perOp reports bytes allocated per op and collections per thousand ops.
func (m *memDelta) perOp(ops int) (allocPerOp, gcPerKop float64) {
	if ops <= 0 {
		return 0, 0
	}
	return float64(m.allocBytes) / float64(ops), float64(m.gcs) * 1000 / float64(ops)
}
