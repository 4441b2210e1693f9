package kspr_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	kspr "repro"
)

// Example demonstrates the basic kSPR flow on the paper's Figure-1
// restaurants: ratings for value, service and ambiance, focal record Kyma,
// k = 3.
func Example() {
	records := [][]float64{
		{0.3, 0.8, 0.8}, // L'Entrecôte
		{0.9, 0.4, 0.4}, // Beirut Grill
		{0.8, 0.3, 0.4}, // El Coyote
		{0.4, 0.3, 0.6}, // La Braceria
		{0.5, 0.5, 0.7}, // Kyma (focal)
	}
	db, err := kspr.Open(records)
	if err != nil {
		panic(err)
	}
	res, err := db.KSPR(4, 3, kspr.WithVolumes(20000), kspr.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("regions: %d\n", len(res.Regions))
	fmt.Printf("Kyma shortlisted for %.0f%% of preferences\n",
		100*db.ImpactProbability(res, 200000, 1))
	// Output:
	// regions: 5
	// Kyma shortlisted for 93% of preferences
}

// ExampleWithParallelism runs one query twice — serially and on a 4-worker
// engine — and shows that the answers are identical: parallelism trades CPU
// for latency without changing a single region.
func ExampleWithParallelism() {
	rng := rand.New(rand.NewSource(1))
	records := make([][]float64, 400)
	for i := range records {
		records[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	db, err := kspr.Open(records)
	if err != nil {
		panic(err)
	}
	focal := db.Skyline()[0]
	serial, err := db.KSPR(focal, 5, kspr.WithParallelism(1))
	if err != nil {
		panic(err)
	}
	parallel, err := db.KSPR(focal, 5, kspr.WithParallelism(4))
	if err != nil {
		panic(err)
	}
	identical := len(serial.Regions) == len(parallel.Regions)
	for i := 0; identical && i < len(serial.Regions); i++ {
		identical = serial.Regions[i].Rank == parallel.Regions[i].Rank &&
			serial.Regions[i].Witness.Equal(parallel.Regions[i].Witness)
	}
	fmt.Printf("serial regions: %d\n", len(serial.Regions))
	fmt.Printf("parallel matches serial: %v\n", identical)
	// Output:
	// serial regions: 43
	// parallel matches serial: true
}

// ExampleWithContext bounds a query with a context deadline: processing
// polls the context at expansion points and abandons the query as soon as
// it is done.
func ExampleWithContext() {
	rng := rand.New(rand.NewSource(5))
	records := make([][]float64, 300)
	for i := range records {
		records[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	db, err := kspr.Open(records)
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the query stops at its first checkpoint
	_, err = db.KSPR(db.Skyline()[0], 5, kspr.WithContext(ctx))
	fmt.Println(err)
	// Output:
	// context canceled
}

// ExampleDB_KSPRBatch answers kSPR for a panel of competing options in one
// call: the items are scheduled across the parallelism budget, and the
// dataset's k-skyband table, built by the first item that needs it, serves
// every one of them.
func ExampleDB_KSPRBatch() {
	rng := rand.New(rand.NewSource(1))
	records := make([][]float64, 400)
	for i := range records {
		records[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	db, err := kspr.Open(records)
	if err != nil {
		panic(err)
	}
	sky := db.Skyline()
	queries := make([]kspr.BatchQuery, 4)
	for i := range queries {
		queries[i] = kspr.BatchQuery{FocalID: sky[i]}
	}
	outcomes, err := db.KSPRBatch(queries, 5, kspr.WithBatchOptions(kspr.WithParallelism(2)))
	if err != nil {
		panic(err)
	}
	for i, o := range outcomes {
		if o.Err != nil {
			panic(o.Err)
		}
		fmt.Printf("focal %d: %d regions\n", queries[i].FocalID, len(o.Result.Regions))
	}
	// Output:
	// focal 22: 43 regions
	// focal 24: 19 regions
	// focal 65: 17 regions
	// focal 68: 22 regions
}

// ExampleDB_TopK shows the plain top-k query against the same index.
// Records 1 and 3 both score exactly 0.5; ties rank by ascending id.
func ExampleDB_TopK() {
	records := [][]float64{
		{0.3, 0.8, 0.8},
		{0.9, 0.4, 0.4},
		{0.8, 0.3, 0.4},
		{0.4, 0.3, 0.6},
		{0.5, 0.5, 0.7},
	}
	db, _ := kspr.Open(records)
	fmt.Println(db.TopK([]float64{0.2, 0.2, 0.6}, 3))
	// Output: [0 4 1]
}

func TestResultJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	records := make([][]float64, 80)
	for i := range records {
		records[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	db, err := kspr.Open(records)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.KSPR(db.Skyline()[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back kspr.Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Regions) != len(res.Regions) || back.K != res.K {
		t.Fatalf("round trip lost data: %d regions vs %d", len(back.Regions), len(res.Regions))
	}
	for i := range back.Regions {
		if back.Regions[i].Rank != res.Regions[i].Rank {
			t.Fatal("region rank lost in round trip")
		}
		if !back.Regions[i].Witness.Equal(res.Regions[i].Witness) {
			t.Fatal("region witness lost in round trip")
		}
	}
}
