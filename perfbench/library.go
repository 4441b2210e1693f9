package main

// The library workloads: deep (a small, high-dimensional dataset where
// cell-tree expansion does the work) and wide (a large, low-dimensional
// WAL-backed store where the dataset-size layers do). Both drive the
// public kspr API from one client in a closed loop.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	kspr "repro"
	"repro/internal/dataset"
	"repro/internal/store"
)

const (
	// libK is the shortlist size of every library query.
	libK = 5
	// libParallelism is the engine parallelism of every library query.
	libParallelism = 2
	// dataSeed fixes the datasets. The workload seed varies only the op
	// streams: per-focal cost spans two orders of magnitude, so a
	// seed-drawn dataset or focal set would move the medians between seeds
	// far more than any change worth measuring.
	dataSeed = 1

	// The focal counts are odd on purpose. Each focal costs the same on
	// every pass, so a run's samples come in equal-sized groups of
	// near-equal values, one group per focal; with an even count the
	// nearest-rank median falls on the last sample of a group — the noisiest
	// one — instead of inside it.
	deepN, deepD, deepFocals = 1000, 4, 25
	wideN, wideD, wideFocals = 100000, 3, 15
	// wideReadsPerWrite is wide's op mix: 7 reads, then 1 write batch.
	wideReadsPerWrite = 7
	// deepPass and widePass are what one pass over the focal set takes on
	// the reference host (2 vCPUs, idle). A run does --seconds worth of
	// whole passes at that pace, so every run of a workload does the same
	// work and its quantiles are over the same samples, however busy the
	// host is; a slow host makes the run longer, not different.
	deepPass = 2500 * time.Millisecond
	widePass = time.Second

	// setupReps is how many times a run repeats its set-up to report the
	// median; deep's set-up is a sub-millisecond index build, so it takes
	// more.
	setupReps     = 9
	deepSetupReps = 31
	// coldReps is how many cold store opens a traced run times.
	coldReps = 3
	// weightSamples is how many random preference vectors each distinct
	// result is checked at against the rank oracle.
	weightSamples = 8
)

func generate(n, d int, seed int64) ([][]float64, error) {
	ds, err := dataset.Generate(dataset.Independent, n, d, seed)
	if err != nil {
		return nil, err
	}
	return ds.Float64s(), nil
}

// workUnits is how many units of nominal duration unit fit in seconds
// (at least one).
func workUnits(seconds, unit time.Duration) int {
	n := int((seconds + unit/2) / unit)
	if n < 1 {
		return 1
	}
	return n
}

// spreadFocals picks count focals spread evenly over the k-skyband in id
// order, so the set covers cheap and expensive focals alike.
func spreadFocals(band []int, count int) []int {
	band = append([]int(nil), band...)
	sort.Ints(band)
	if len(band) <= count {
		return band
	}
	out := make([]int, count)
	for i := range out {
		out[i] = band[(2*i+1)*len(band)/(2*count)]
	}
	return out
}

// libLoop drives one library workload's timed phase: a fixed number of
// whole passes over a fixed focal set, each in a seed-shuffled order, with an optional write after
// every readsPerWrite reads. In a traced run, passes alternate between
// untraced and traced, so the trace overhead compares like with like.
type libLoop struct {
	cfg     config
	out     *runOut
	db      *kspr.DB
	focals  []int
	opts    []kspr.QueryOption
	lat     latencies
	results *resultChecker

	readsPerWrite int
	write         func()

	passes          int
	eng             engineAcc
	tracedNs, rawNs int64
	mem             memDelta
	memOps          int
}

func newLibLoop(cfg config, out *runOut, db *kspr.DB, focals []int) *libLoop {
	return &libLoop{
		cfg:     cfg,
		out:     out,
		db:      db,
		focals:  focals,
		opts:    []kspr.QueryOption{kspr.WithParallelism(libParallelism)},
		lat:     latencies{},
		results: newResultChecker(libK),
	}
}

// warm runs one untimed, unchecked query so lazy set-up is not timed.
func (l *libLoop) warm() error {
	_, err := l.db.KSPR(l.focals[0], libK, l.opts...)
	return err
}

// phase runs the configured number of whole passes; in a traced run the
// count is rounded up to even, so traced and untraced passes are equal
// in number.
func (l *libLoop) phase(passes int) time.Duration {
	if l.cfg.trace && passes%2 == 1 {
		passes++
	}
	rng := rand.New(rand.NewSource(l.cfg.seed))
	start := time.Now()
	reads := 0
	for ; l.passes < passes; l.passes++ {
		traced := l.cfg.trace && l.passes%2 == 1
		before := l.out.attempted
		if !traced {
			l.mem.start()
		}
		for _, i := range rng.Perm(len(l.focals)) {
			l.read(l.focals[i], traced)
			reads++
			if l.write != nil && reads%l.readsPerWrite == 0 {
				l.write()
			}
		}
		if !traced {
			l.mem.stop()
			l.memOps += l.out.attempted - before
		}
	}
	return time.Since(start)
}

func (l *libLoop) read(focal int, traced bool) {
	opts := l.opts
	var tr *kspr.Trace
	if traced {
		tr = kspr.NewTrace()
		opts = append(opts[:len(opts):len(opts)], kspr.WithTrace(tr))
	}
	start := time.Now()
	res, err := l.db.KSPR(focal, libK, opts...)
	d := time.Since(start)
	l.out.attempted++
	if err != nil {
		l.out.fail("kspr focal %d: %v", focal, err)
		return
	}
	l.out.ok++
	if traced {
		l.eng.add(tr, d, res.Stats)
		l.tracedNs += int64(d)
	} else {
		l.rawNs += int64(d)
		l.lat.add(classKSPR, d)
	}
	l.results.observe(l.out, focal, res)
}

// layers fills the engine, trace-overhead and runtime metrics of a traced
// phase.
func (l *libLoop) layers(o *runOut) {
	l.eng.fill(o.metrics)
	if l.rawNs > 0 {
		o.metrics["obs.trace_overhead_ratio"] = float64(l.tracedNs) / float64(l.rawNs)
	}
	o.metrics["runtime.alloc_bytes_per_op"], o.metrics["runtime.gc_per_kop"] = l.mem.perOp(l.memOps)
}

// resultChecker checks library query outputs: every repeat of a focal
// must equal its first result exactly, and each distinct result must agree
// with the rank oracle (DB.Rank) at every region witness and at sampled
// preference vectors.
type resultChecker struct {
	k     int
	first map[int]*kspr.Result
	sums  map[int]uint64
}

func newResultChecker(k int) *resultChecker {
	return &resultChecker{k: k, first: map[int]*kspr.Result{}, sums: map[int]uint64{}}
}

func (c *resultChecker) observe(o *runOut, focal int, res *kspr.Result) {
	sum := resultHash(res)
	if want, ok := c.sums[focal]; ok {
		o.check("identical_to_first", sum == want, "focal %d: result differs from its first pass", focal)
		return
	}
	c.sums[focal] = sum
	c.first[focal] = res
}

// verify runs the rank-oracle checks on each distinct result against db.
func (c *resultChecker) verify(o *runOut, db *kspr.DB) {
	focals := make([]int, 0, len(c.first))
	for f := range c.first {
		focals = append(focals, f)
	}
	sort.Ints(focals)
	for _, focal := range focals {
		res := c.first[focal]
		for _, r := range res.Regions {
			rank := db.Rank(focal, lift(r.Witness))
			o.check("witness_rank", rank <= c.k && (!r.RankExact || rank == r.Rank),
				"focal %d: rank %d at a region witness (region rank %d, exact %v, k %d)", focal, rank, r.Rank, r.RankExact, c.k)
		}
		rng := rand.New(rand.NewSource(int64(focal)))
		for s := 0; s < weightSamples; s++ {
			w := randomWeights(rng, db.Dim())
			in := res.ContainsWeight(w[:len(w)-1], 1e-9)
			rank := db.Rank(focal, w)
			o.check("sampled_weight", in == (rank <= c.k),
				"focal %d: rank %d at a sampled weight, inside a result region: %v", focal, rank, in)
		}
	}
}

// lift maps a transformed-space weight vector back to original weights by
// appending 1 - sum(w).
func lift(w []float64) []float64 {
	out := append(make([]float64, 0, len(w)+1), w...)
	s := 0.0
	for _, v := range w {
		s += v
	}
	return append(out, 1-s)
}

// randomWeights draws a uniform point of the weight simplex.
func randomWeights(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	s := 0.0
	for i := range w {
		w[i] = rng.ExpFloat64() + 1e-12
		s += w[i]
	}
	for i := range w {
		w[i] /= s
	}
	return w
}

// resultHash fingerprints a result's regions: rank, exactness, witness,
// vertices and outscorers. Stats are left out — they carry timings.
func resultHash(res *kspr.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putVec := func(v []float64) {
		put(uint64(len(v)))
		for _, x := range v {
			put(math.Float64bits(x))
		}
	}
	put(uint64(len(res.Regions)))
	for _, r := range res.Regions {
		put(uint64(r.Rank))
		if r.RankExact {
			put(1)
		} else {
			put(0)
		}
		putVec(r.Witness)
		put(uint64(len(r.Vertices)))
		for _, v := range r.Vertices {
			putVec(v)
		}
		put(uint64(len(r.Outscorers)))
		for _, id := range r.Outscorers {
			put(uint64(id))
		}
	}
	return h.Sum64()
}

// runDeep is the deep workload: LP-CTA on IND n=1000, d=4 over 25
// skyband focals on an in-memory DB. Set-up is kspr.Open.
func runDeep(cfg config) (*runOut, error) {
	o := newRunOut()
	recs, err := generate(deepN, deepD, dataSeed)
	if err != nil {
		return nil, err
	}
	var db *kspr.DB
	setup, err := medianDuration(deepSetupReps, func() error {
		var err error
		db, err = kspr.Open(recs)
		return err
	})
	if err != nil {
		return nil, err
	}
	l := newLibLoop(cfg, o, db, spreadFocals(db.KSkyband(libK), deepFocals))
	if err := l.warm(); err != nil {
		return nil, err
	}
	wall := l.phase(workUnits(cfg.seconds, deepPass))
	l.results.verify(o, db)
	o.notes["focals"] = l.focals
	o.notes["passes"] = l.passes
	if !cfg.trace {
		endToEnd(o, setup, l.lat, wall)
		return o, nil
	}
	zeroLayers(o)
	l.layers(o)
	return o, rtreeLayers(o, recs, libK, deepSetupReps)
}

// wideWriter is wide's write stream: each batch inserts one record drawn
// from [0, 0.5]^d — dominated by far more than k records, so no skyband
// focal's answer changes — and deletes the oldest record it inserted, so
// n and the query cost stay stationary.
type wideWriter struct {
	db       *kspr.DB
	rng      *rand.Rand
	out      *runOut
	lat      latencies
	gen      uint64
	inserted []int64
	// storeBytes is what the process wrote during Apply calls (all of it
	// store files); userBytes the mutations' payload, 8 bytes per value
	// and per deleted id.
	storeBytes, userBytes int64
}

func (w *wideWriter) write() {
	vals := make([]float64, wideD)
	for j := range vals {
		vals[j] = 0.5 * w.rng.Float64()
	}
	muts := []kspr.Mutation{kspr.Insert(vals...)}
	if len(w.inserted) > 0 {
		muts = append(muts, kspr.Delete(w.inserted[0]))
	}
	before, errBefore := writtenBytes()
	start := time.Now()
	res, err := w.db.Apply(muts...)
	d := time.Since(start)
	after, errAfter := writtenBytes()
	w.out.attempted++
	if err != nil {
		w.out.fail("apply: %v", err)
		return
	}
	w.out.ok++
	w.lat.add(classMutate, d)
	if errBefore == nil && errAfter == nil {
		w.storeBytes += after - before
		w.userBytes += int64(8*len(vals) + 8*(len(muts)-1))
	}
	ok := res.Generation == w.gen+1 && len(res.IDs) == len(muts) &&
		(len(muts) == 1 || res.IDs[1] == w.inserted[0])
	w.out.check("apply_ack", ok, "apply: generation %d after %d, ids %v", res.Generation, w.gen, res.IDs)
	w.gen = res.Generation
	if !ok {
		return
	}
	if len(muts) == 2 {
		w.inserted = w.inserted[1:]
	}
	w.inserted = append(w.inserted, res.IDs[0])
}

// runWide is the wide workload: a WAL-backed store of IND n=100000, d=3,
// with 7 LP-CTA reads per Apply batch. Set-up is a warm OpenStore reopen.
func runWide(cfg config) (*runOut, error) {
	o := newRunOut()
	recs, err := generate(wideN, wideD, dataSeed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-wide-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := bootstrapStore(dir, recs); err != nil {
		return nil, err
	}
	var snapshots atomic.Int64
	events := kspr.WithStoreEvents(func(ev kspr.StoreEvent) {
		if ev.Kind == store.EventSnapshotWrite {
			snapshots.Add(1)
		}
	})
	var db *kspr.DB
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if db != nil {
			db.Close()
		}
		start := time.Now()
		if db, err = kspr.OpenStore(dir, events); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	o.notes["index_warm"] = db.IndexWarm()
	o.check("store_len", db.Len() == wideN, "reopened store holds %d records, want %d", db.Len(), wideN)

	l := newLibLoop(cfg, o, db, spreadFocals(db.KSkyband(libK), wideFocals))
	w := &wideWriter{db: db, rng: rand.New(rand.NewSource(cfg.seed*7919 + 1)), out: o, lat: l.lat, gen: db.Generation()}
	// One untimed write first, so every timed read sees an index rebuilt by
	// Apply rather than the reopened one.
	w.write()
	if err := l.warm(); err != nil {
		return nil, err
	}
	o.attempted, o.ok = 0, 0
	w.lat[classMutate] = nil
	w.storeBytes, w.userBytes = 0, 0
	l.readsPerWrite, l.write = wideReadsPerWrite, w.write
	snapBefore := snapshots.Load()
	wall := l.phase(workUnits(cfg.seconds, widePass))
	snaps := snapshots.Load() - snapBefore
	l.results.verify(o, db)
	o.check("store_len", db.Len() == wideN+1, "store holds %d records after the phase, want %d", db.Len(), wideN+1)
	o.notes["focals"] = l.focals
	o.notes["passes"] = l.passes
	if !cfg.trace {
		endToEnd(o, median(sortedCopy(setups)), l.lat, wall)
		return o, nil
	}
	zeroLayers(o)
	l.layers(o)
	mutateLayers(o, l.lat)
	o.metrics["store.snapshot_writes"] = float64(snaps)
	if w.userBytes > 0 {
		o.metrics["store.bytes_per_user_byte"] = float64(w.storeBytes) / float64(w.userBytes)
	}
	db.Close()
	db = nil
	cold, err := coldReopen(dir, coldReps)
	if err != nil {
		return nil, err
	}
	o.metrics["store.reopen_cold_ms"] = cold * 1e3
	return o, rtreeLayers(o, recs, libK, 3)
}

// bootstrapStore fills a new store at dir with records in one batch and
// snapshots it, which also persists the candidate index, so the next
// open is warm.
func bootstrapStore(dir string, recs [][]float64) error {
	db, err := kspr.OpenStore(dir)
	if err != nil {
		return err
	}
	muts := make([]kspr.Mutation, len(recs))
	for i, r := range recs {
		muts[i] = kspr.Insert(r...)
	}
	if _, err := db.Apply(muts...); err != nil {
		db.Close()
		return fmt.Errorf("bootstrap apply: %w", err)
	}
	if err := db.SnapshotStore(); err != nil {
		db.Close()
		return fmt.Errorf("bootstrap snapshot: %w", err)
	}
	return db.Close()
}

// coldReopen times OpenStore on dir with the persisted index removed
// first, so the open rebuilds the index; it returns the median seconds.
func coldReopen(dir string, reps int) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if err := os.Remove(filepath.Join(dir, store.IndexFileName)); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		start := time.Now()
		db, err := kspr.OpenStore(dir)
		if err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
		if db.IndexWarm() {
			return 0, fmt.Errorf("store at %s opened warm after its index was removed", dir)
		}
		if err := db.Close(); err != nil {
			return 0, err
		}
	}
	return median(sortedCopy(xs)), nil
}
