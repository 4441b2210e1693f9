// Parallel: run the same kSPR query with the serial engine and with one
// expansion worker per core, verify the answers are identical, and report
// the speedup. The parallel engine fans look-ahead rank bounds and region
// finalization across goroutines while merging results in deterministic
// order; CellTree insertion stays one depth-first walk. Parallelism
// changes latency and nothing else.
//
// Run with: go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	kspr "repro"
)

func main() {
	// A synthetic catalogue of 3000 options scored on 4 criteria in [0,1]:
	// large enough that the expansion work dominates goroutine overheads.
	rng := rand.New(rand.NewSource(7))
	records := make([][]float64, 3000)
	for i := range records {
		records[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	db, err := kspr.Open(records)
	if err != nil {
		log.Fatal(err)
	}
	focal := db.Skyline()[0]

	run := func(parallelism int) (*kspr.Result, time.Duration) {
		start := time.Now()
		res, err := db.KSPR(focal, 10, kspr.WithParallelism(parallelism))
		if err != nil {
			log.Fatal(err)
		}
		return res, time.Since(start)
	}

	serial, serialTime := run(1)
	cores := runtime.GOMAXPROCS(0)
	parallel, parallelTime := run(cores) // same as WithParallelism(0)

	fmt.Printf("focal #%d, k=10, %d records, %d cores\n", focal, db.Len(), cores)
	fmt.Printf("serial   (parallelism=1): %3d regions in %v\n", len(serial.Regions), serialTime)
	fmt.Printf("parallel (parallelism=%d): %3d regions in %v (%.2fx)\n",
		cores, len(parallel.Regions), parallelTime,
		float64(serialTime)/float64(parallelTime))

	// The engine's contract: parallel output is byte-identical to serial.
	if len(serial.Regions) != len(parallel.Regions) {
		log.Fatalf("region counts differ: %d vs %d", len(serial.Regions), len(parallel.Regions))
	}
	for i := range serial.Regions {
		if !serial.Regions[i].Witness.Equal(parallel.Regions[i].Witness) ||
			serial.Regions[i].Rank != parallel.Regions[i].Rank {
			log.Fatalf("region %d differs between serial and parallel runs", i)
		}
	}
	fmt.Println("serial and parallel region lists are identical ✓")
}
