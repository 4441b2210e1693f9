package kspr_test

// This file maps every table and figure of the paper's evaluation to a
// testing.B benchmark, so `go test -bench=.` regenerates the whole suite at
// reduced scale and `cmd/ksprbench` produces the full tables. Benchmarks
// print their rows once (on the first iteration) and otherwise measure the
// end-to-end experiment runtime.
//
// Scale: BENCH_SCALE-like tuning is deliberately compile-time constant so
// results are comparable run to run; edit benchScale or use ksprbench
// -scale for bigger runs.

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	kspr "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/store"
)

// benchScale keeps `go test -bench=.` tractable on a laptop; ksprbench
// defaults to 1.0 (20K records) and the paper used up to 10M.
const benchScale = 0.05

// benchConfig returns the experiment configuration for benchmarks. Rows are
// printed only when -v is given; timing is what the benchmark reports.
func benchConfig(verbose bool) experiments.Config {
	out := io.Discard
	if verbose {
		out = os.Stdout
	}
	return experiments.Config{Scale: benchScale, Queries: 1, Seed: 1, Out: out}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := benchConfig(testing.Verbose())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table/figure of the evaluation section.

func BenchmarkTable1_RealDatasetInventory(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2_ParameterGrid(b *testing.B)            { benchExperiment(b, "table2") }
func BenchmarkFig9_NBACaseStudy(b *testing.B)               { benchExperiment(b, "fig9") }
func BenchmarkFig10a_LPCTAvsRTOPK(b *testing.B)             { benchExperiment(b, "fig10a") }
func BenchmarkFig10b_AllAlgorithmsVsIMaxRank(b *testing.B)  { benchExperiment(b, "fig10b") }
func BenchmarkFig11_ProcessedRecordsAndNodes(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12_EffectOfCardinality(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13_EffectOfDimensionality(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14_EffectOfDistribution(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15_RealDatasets(b *testing.B)              { benchExperiment(b, "fig15") }
func BenchmarkFig16_LPvsHalfspaceIntersection(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17_Lemma2Elimination(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18_BoundModes(b *testing.B)                { benchExperiment(b, "fig18") }
func BenchmarkFig19_DiskScenario(b *testing.B)              { benchExperiment(b, "fig19") }
func BenchmarkFig20_PCTAvsKSkyband(b *testing.B)            { benchExperiment(b, "fig20") }
func BenchmarkFig22_TransformedVsOriginal(b *testing.B)     { benchExperiment(b, "fig22") }
func BenchmarkFig23_IndexConstruction(b *testing.B)         { benchExperiment(b, "fig23") }
func BenchmarkFig24_AmortizedResponseTime(b *testing.B)     { benchExperiment(b, "fig24") }

// Micro-benchmarks of the public API on a fixed workload, one per
// algorithm, for quick regression tracking.

func benchDB(b *testing.B, n, d int) *kspr.DB {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	records := make([][]float64, n)
	for i := range records {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.Float64()
		}
		records[i] = r
	}
	db, err := kspr.Open(records)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// benchAlgorithm measures one algorithm at a fixed engine parallelism
// (1 = the serial baseline; 0 = one worker per core).
func benchAlgorithm(b *testing.B, algo kspr.Algorithm, k, parallelism int) {
	db := benchDB(b, 2000, 4)
	focal := db.Skyline()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := db.KSPR(focal, k, kspr.WithAlgorithm(algo), kspr.WithoutGeometry(),
			kspr.WithParallelism(parallelism))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryCTA_k10(b *testing.B)      { benchAlgorithm(b, kspr.CTA, 10, 1) }
func BenchmarkQueryPCTA_k10(b *testing.B)     { benchAlgorithm(b, kspr.PCTA, 10, 1) }
func BenchmarkQueryLPCTA_k10(b *testing.B)    { benchAlgorithm(b, kspr.LPCTA, 10, 1) }
func BenchmarkQueryKSkyband_k10(b *testing.B) { benchAlgorithm(b, kspr.KSkybandCTA, 10, 1) }

// The Parallel variants run the identical workloads with one engine worker
// per core; comparing each pair against its serial twin above measures the
// expansion engine's speedup.
func BenchmarkQueryCTAParallel_k10(b *testing.B)      { benchAlgorithm(b, kspr.CTA, 10, 0) }
func BenchmarkQueryPCTAParallel_k10(b *testing.B)     { benchAlgorithm(b, kspr.PCTA, 10, 0) }
func BenchmarkQueryLPCTAParallel_k10(b *testing.B)    { benchAlgorithm(b, kspr.LPCTA, 10, 0) }
func BenchmarkQueryKSkybandParallel_k10(b *testing.B) { benchAlgorithm(b, kspr.KSkybandCTA, 10, 0) }

func BenchmarkTopK(b *testing.B) {
	db := benchDB(b, 50000, 4)
	w := []float64{0.4, 0.3, 0.2, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.TopK(w, 10)
	}
}

func BenchmarkSkyline(b *testing.B) {
	db := benchDB(b, 50000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Skyline()
	}
}

// BenchmarkOpenStore times OpenStore over a snapshotted WAL-backed store
// of IND n=100000, d=3. warm reassembles the R-tree from the persisted
// index; cold removes the index file before each open, so the open
// rebuilds the tree and writes the file again.
func BenchmarkOpenStore(b *testing.B) {
	ds, err := dataset.Generate(dataset.Independent, 100000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	db, err := kspr.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	muts := make([]kspr.Mutation, ds.Len())
	for i, r := range ds.Float64s() {
		muts[i] = kspr.Insert(r...)
	}
	if _, err := db.Apply(muts...); err != nil {
		b.Fatal(err)
	}
	if err := db.SnapshotStore(); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{true, false} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !warm {
					b.StopTimer()
					if err := os.Remove(filepath.Join(dir, store.IndexFileName)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				db, err := kspr.OpenStore(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if db.IndexWarm() != warm {
					b.Fatalf("IndexWarm() = %v, want %v", db.IndexWarm(), warm)
				}
				db.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkApply times one mutation batch on IND d=3 data. memory and
// wal run the wide workload's writer at n=100000: an insert drawn from
// [0, 0.5]^3 plus the delete of the record the previous batch inserted,
// so n stays put and the index is patched. memory runs it on a DB built
// by Open; wal on a WAL-backed DB, whose automatic snapshots (every 256
// batches) also write the index file. front deletes the lowest live id
// instead, which shifts every dense id, so the index is rebuilt; reload
// deletes every record of an n=400 DB and inserts them again, the batch a
// repeated ksprd load applies, which rebuilds too.
func BenchmarkApply(b *testing.B) {
	ds, err := dataset.Generate(dataset.Independent, 100000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	openMemory := func(b *testing.B) *kspr.DB {
		db, err := kspr.Open(ds.Float64s())
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	openWAL := func(b *testing.B) *kspr.DB {
		db, err := kspr.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		muts := make([]kspr.Mutation, ds.Len())
		for i, r := range ds.Float64s() {
			muts[i] = kspr.Insert(r...)
		}
		if _, err := db.Apply(muts...); err != nil {
			b.Fatal(err)
		}
		return db
	}
	// batches runs b.N batches, each an insert plus the delete that
	// victim names from the DB and the previous batch's result.
	batches := func(b *testing.B, db *kspr.DB, victim func(*kspr.DB, *kspr.ApplyResult) int64) {
		defer db.Close()
		rng := rand.New(rand.NewSource(1))
		insert := func() kspr.Mutation {
			return kspr.Insert(0.5*rng.Float64(), 0.5*rng.Float64(), 0.5*rng.Float64())
		}
		res, err := db.Apply(insert())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err = db.Apply(insert(), kspr.Delete(victim(db, res))); err != nil {
				b.Fatal(err)
			}
		}
	}
	previous := func(_ *kspr.DB, res *kspr.ApplyResult) int64 { return res.IDs[0] }
	lowest := func(db *kspr.DB, _ *kspr.ApplyResult) int64 {
		id, _ := db.StableID(0)
		return id
	}
	b.Run("memory", func(b *testing.B) { batches(b, openMemory(b), previous) })
	b.Run("wal", func(b *testing.B) { batches(b, openWAL(b), previous) })
	b.Run("front", func(b *testing.B) { batches(b, openMemory(b), lowest) })
	b.Run("reload", func(b *testing.B) {
		small, err := dataset.Generate(dataset.Independent, 400, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows := small.Float64s()
		db, err := kspr.Open(rows)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		muts := make([]kspr.Mutation, 2*len(rows))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j, r := range rows {
				id, _ := db.StableID(j)
				muts[j], muts[len(rows)+j] = kspr.Delete(id), kspr.Insert(r...)
			}
			b.StartTimer()
			if _, err := db.Apply(muts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOpen times kspr.Open on the deep workload's dataset, IND
// n=1000, d=4: validation plus the index build.
func BenchmarkOpen(b *testing.B) {
	ds, err := dataset.Generate(dataset.Independent, 1000, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	recs := ds.Float64s()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kspr.Open(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// whatIfBenchDB is the what-if benchmarks' workload: IND n=20,000, d=3,
// and the first record outside the 5-skyband as the focal, a seller whose
// low prices are hopeless.
func whatIfBenchDB(b *testing.B) (*kspr.DB, int) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Independent, 20000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	db, err := kspr.Open(ds.Float64s())
	if err != nil {
		b.Fatal(err)
	}
	inBand := make(map[int]bool)
	for _, id := range db.KSkyband(5) {
		inBand[id] = true
	}
	focal := 0
	for inBand[focal] {
		focal++
	}
	return db, focal
}

// BenchmarkPriceToTarget times one repricing bisection to a 5% impact
// share on the what-if workload.
func BenchmarkPriceToTarget(b *testing.B) {
	db, focal := whatIfBenchDB(b)
	spec := kspr.RepriceSpec{Attr: 0, Target: 0.05, Eps: 1e-3, Samples: 2000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PriceToTarget(focal, 5, spec, kspr.WithoutGeometry(), kspr.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontier times one 16-point impact-price frontier, from the
// focal's current value to the dataset maximum, on the what-if workload.
func BenchmarkFrontier(b *testing.B) {
	db, focal := whatIfBenchDB(b)
	spec := kspr.FrontierSpec{Attr: 0, Steps: 16, Samples: 2000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Frontier(focal, 5, spec, kspr.WithoutGeometry(), kspr.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutationImpact times the cache-migration classification of one
// mutation batch on IND n=100,000, d=3: a deep-interior insert and the
// delete of the record with the smallest attribute sum, classified
// against 64 focals from the 5-skyband at k=5.
func BenchmarkMutationImpact(b *testing.B) {
	ds, err := dataset.Generate(dataset.Independent, 100000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	db, err := kspr.Open(ds.Float64s())
	if err != nil {
		b.Fatal(err)
	}
	deepest, low := 0, 3.0
	for i := 0; i < db.Len(); i++ {
		r := db.Record(i)
		if s := r[0] + r[1] + r[2]; s < low {
			deepest, low = i, s
		}
	}
	stable, _ := db.StableID(deepest)
	band := db.KSkyband(5)
	focals := make([][]float64, 64)
	for i := range focals {
		focals[i] = db.Record(band[i%len(band)])
	}
	old := db.Freeze()
	res, err := db.Apply(kspr.Insert(0.05, 0.05, 0.05), kspr.Delete(stable))
	if err != nil {
		b.Fatal(err)
	}
	cur := db.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mi := kspr.NewMutationImpact(old, cur, res.Deltas, 5)
		for _, f := range focals {
			if !mi.Unaffected(f, 5, kspr.LPCTA) {
				b.Fatal("a deep-interior batch affected a 5-skyband focal")
			}
		}
	}
}
