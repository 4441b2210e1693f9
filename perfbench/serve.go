package main

// The serve workload: the ksprd serving stack (internal/server) hosted on
// loopback in durable mode, driven over HTTP by two closed-loop
// connections with the mixed traffic of cmd/ksprload. Every response goes
// through the benchmark's own invariant checks.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	kspr "repro"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	serveDatasets = 3
	serveN        = 400
	serveD        = 3
	serveK        = 5
	serveConns    = 2
	serveWorkers  = 2
	// serveRate sets a run's op count: --seconds worth of ops at this rate,
	// split evenly between the connections, so every run replays the same
	// op streams. It is above the reference host's pace (about 1500 ops/s
	// on 2 vCPUs) because tail_ms, 10 samples from the top, steadied only
	// once a run held about 30000 ops.
	serveRate = 2000
	// serveWarm is how much of the same traffic runs untimed first, so the
	// timed phase sees the result cache in steady state, not filling up.
	serveWarm = 3 * time.Second
	zipfS     = 1.2
	// verifySample is the share of cache-served kspr responses re-run with
	// no_cache and compared byte for byte.
	verifySample       = 0.05
	batchMin, batchMax = 3, 8
	// replayFocals per dataset, replayRounds times, form the fixed kspr
	// sample replayed after the timed phase with and without ?debug=trace.
	replayFocals = 8
	replayRounds = 3
	// eventPoll is how often the journal is read during the phase; the
	// journal ring holds 512 events and mutations append one or two each.
	eventPoll = 200 * time.Millisecond
)

// serveMix is the traffic mix, as weights out of 100.
var serveMix = []struct {
	class  string
	weight int
}{{classKSPR, 60}, {classBatch, 15}, {classMutate, 15}, {classWhatIf, 10}}

// countingConn counts the bytes written to a socket, so the phase's socket
// traffic can be taken out of the process's total write volume.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

// stack is one self-hosted serving stack.
type stack struct {
	dir  string
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
}

func startStack(dir string, sock *atomic.Int64) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stack{
		dir:  dir,
		srv:  server.NewServer(server.Config{Workers: serveWorkers, StoreDir: dir}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	st.http = &http.Server{Handler: st.srv.Handler()}
	go func() {
		defer close(st.done)
		_ = st.http.Serve(countingListener{ln, sock})
	}()
	return st, nil
}

// close shuts the listener down, waits for the serve loop to exit, then
// drains the server.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.http.Shutdown(ctx)
	<-st.done
	st.srv.Close()
}

// newClient returns a client holding at most one connection, counting
// what it writes into sock.
func newClient(sock *atomic.Int64) *http.Client {
	var d net.Dialer
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countingConn{c, sock}, nil
			},
		},
	}
}

// call sends one request and reads the whole response body; the returned
// duration covers exactly that round trip.
func call(c *http.Client, method, url, body string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, time.Since(start), err
}

func datasetName(i int) string { return fmt.Sprintf("load%d", i) }

// loadDatasets installs the workload's datasets over HTTP.
func loadDatasets(c *http.Client, base string) error {
	for i := 0; i < serveDatasets; i++ {
		body := fmt.Sprintf(`{"name":%q,"generate":{"dist":"IND","n":%d,"d":%d,"seed":%d}}`,
			datasetName(i), serveN, serveD, dataSeed+i)
		status, raw, _, err := call(c, http.MethodPost, base+"/v1/datasets", body)
		if err != nil {
			return fmt.Errorf("load %s: %w", datasetName(i), err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("load %s: status %d: %.200s", datasetName(i), status, raw)
		}
	}
	return nil
}

// serveConn is one closed-loop client connection with its own random
// streams, latency log and invariant state.
type serveConn struct {
	client    *http.Client
	base      string
	rng       *rand.Rand
	zipfDS    *rand.Zipf
	zipfFocal *rand.Zipf
	out       *runOut
	lat       latencies
	// gen is the highest generation this connection has seen per dataset;
	// later responses on the connection must never report less.
	gen []uint64
	// inserted are the ids this connection inserted per dataset, the only
	// ones its updates and deletes target, so connections never conflict.
	inserted  [][]int64
	userBytes int64
}

func newServeConn(id int, seed int64, base string, sock *atomic.Int64) *serveConn {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
	return &serveConn{
		client:    newClient(sock),
		base:      base,
		rng:       rng,
		zipfDS:    rand.NewZipf(rng, zipfS, 1, serveDatasets-1),
		zipfFocal: rand.NewZipf(rng, zipfS, 1, serveN-1),
		out:       newRunOut(),
		lat:       latencies{},
		gen:       make([]uint64, serveDatasets),
		inserted:  make([][]int64, serveDatasets),
	}
}

// checkGen checks and advances the connection's generation floor.
func (c *serveConn) checkGen(ds int, gen uint64, class string) {
	c.out.check("generation", gen >= c.gen[ds], "%s %s: generation %d after %d on the same connection",
		class, datasetName(ds), gen, c.gen[ds])
	if gen > c.gen[ds] {
		c.gen[ds] = gen
	}
}

// loop issues ops operations.
func (c *serveConn) loop(ops int) {
	var table []string
	for _, m := range serveMix {
		for i := 0; i < m.weight; i++ {
			table = append(table, m.class)
		}
	}
	for ; ops > 0; ops-- {
		class := table[c.rng.Intn(len(table))]
		ds := int(c.zipfDS.Uint64())
		var d time.Duration
		var err error
		switch class {
		case classKSPR:
			d, err = c.kspr(ds, int(c.zipfFocal.Uint64()))
		case classBatch:
			d, err = c.batch(ds)
		case classMutate:
			d, err = c.mutate(ds)
		case classWhatIf:
			d, err = c.whatif(ds, int(c.zipfFocal.Uint64()))
		}
		c.out.attempted++
		if err != nil {
			c.out.fail("%v", err)
			continue
		}
		c.out.ok++
		c.lat.add(class, d)
	}
}

// queryWire is the part of a kspr response the checks read.
type queryWire struct {
	Generation uint64          `json:"generation"`
	Cached     bool            `json:"cached"`
	Regions    json.RawMessage `json:"regions"`
	Trace      *struct {
		TotalMs float64 `json:"total_ms"`
	} `json:"trace"`
}

func (c *serveConn) kspr(ds, focal int) (time.Duration, error) {
	status, raw, d, err := call(c.client, http.MethodPost, c.base+"/v1/kspr",
		fmt.Sprintf(`{"dataset":%q,"focal":%d,"k":%d}`, datasetName(ds), focal, serveK))
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("kspr %s focal %d: status %d: %.200s", datasetName(ds), focal, status, raw)
	}
	var q queryWire
	if err := json.Unmarshal(raw, &q); err != nil {
		return 0, fmt.Errorf("kspr decode: %w", err)
	}
	c.checkGen(ds, q.Generation, classKSPR)
	if q.Cached && c.rng.Float64() < verifySample {
		c.recompute(ds, focal, &q)
	}
	return d, nil
}

// recompute re-runs a cache-served query with no_cache and requires
// byte-identical regions at the same generation. A mutation landing in
// between moves the generation; that sample is counted as skipped.
func (c *serveConn) recompute(ds, focal int, cached *queryWire) {
	status, raw, _, err := call(c.client, http.MethodPost, c.base+"/v1/kspr",
		fmt.Sprintf(`{"dataset":%q,"focal":%d,"k":%d,"no_cache":true}`, datasetName(ds), focal, serveK))
	var cold queryWire
	if err != nil || status != http.StatusOK || json.Unmarshal(raw, &cold) != nil {
		c.out.check("cache_recompute", false, "no_cache recompute of %s focal %d failed: status %d err %v",
			datasetName(ds), focal, status, err)
		return
	}
	c.checkGen(ds, cold.Generation, classKSPR)
	if cold.Generation != cached.Generation {
		c.out.checks["cache_recompute_skipped"]++
		return
	}
	c.out.check("cache_recompute", bytes.Equal(cached.Regions, cold.Regions),
		"%s focal %d generation %d: cached regions differ from a no_cache recompute", datasetName(ds), focal, cached.Generation)
}

func (c *serveConn) batch(ds int) (time.Duration, error) {
	nq := batchMin + c.rng.Intn(batchMax-batchMin+1)
	items := make([]string, nq)
	for i := range items {
		items[i] = fmt.Sprintf(`{"focal":%d}`, c.zipfFocal.Uint64())
	}
	status, raw, d, err := call(c.client, http.MethodPost, c.base+"/v1/kspr:batch",
		fmt.Sprintf(`{"dataset":%q,"k":%d,"queries":[%s]}`, datasetName(ds), serveK, strings.Join(items, ",")))
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		// No batch asks for extra parallelism, so a 429 is a failure too.
		return 0, fmt.Errorf("batch %s: status %d: %.200s", datasetName(ds), status, raw)
	}
	floor := c.gen[ds]
	seen := make([]int, nq)
	var itemErr error
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var bl struct {
			Index  int        `json:"index"`
			Error  string     `json:"error"`
			Status int        `json:"status"`
			Result *queryWire `json:"result"`
		}
		if err := json.Unmarshal(line, &bl); err != nil {
			return 0, fmt.Errorf("batch %s: bad stream line: %w", datasetName(ds), err)
		}
		if bl.Index < 0 || bl.Index >= nq {
			c.out.check("batch_lines", false, "batch %s: line index %d outside [0,%d)", datasetName(ds), bl.Index, nq)
			continue
		}
		seen[bl.Index]++
		if bl.Error != "" {
			itemErr = fmt.Errorf("batch %s item %d: status %d: %s", datasetName(ds), bl.Index, bl.Status, bl.Error)
			continue
		}
		if bl.Result != nil {
			c.out.check("generation", bl.Result.Generation >= floor, "batch %s: item generation %d after %d",
				datasetName(ds), bl.Result.Generation, floor)
			if bl.Result.Generation > c.gen[ds] {
				c.gen[ds] = bl.Result.Generation
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("batch %s: reading stream: %w", datasetName(ds), err)
	}
	exact := true
	for _, n := range seen {
		exact = exact && n == 1
	}
	c.out.check("batch_lines", exact, "batch %s: items settled %v times, want exactly once each", datasetName(ds), seen)
	return d, itemErr
}

func (c *serveConn) mutate(ds int) (time.Duration, error) {
	nops := 1 + c.rng.Intn(3)
	ops := make([]string, 0, nops)
	var kept, inserts []int
	for i := 0; i < nops; i++ {
		vals := make([]string, serveD)
		for j := range vals {
			vals[j] = fmt.Sprintf("%.17g", c.rng.Float64())
		}
		values := "[" + strings.Join(vals, ",") + "]"
		own := c.inserted[ds]
		if len(own) == 0 || c.rng.Float64() < 0.5 {
			inserts = append(inserts, i)
			ops = append(ops, `{"op":"insert","values":`+values+`}`)
			c.userBytes += 8 * serveD
			continue
		}
		idx := c.rng.Intn(len(own))
		id := own[idx]
		c.inserted[ds] = append(own[:idx], own[idx+1:]...)
		if c.rng.Float64() < 0.5 {
			kept = append(kept, int(id))
			ops = append(ops, fmt.Sprintf(`{"op":"update","id":%d,"values":%s}`, id, values))
			c.userBytes += 8 + 8*serveD
		} else {
			ops = append(ops, fmt.Sprintf(`{"op":"delete","id":%d}`, id))
			c.userBytes += 8
		}
	}
	status, raw, d, err := call(c.client, http.MethodPost, c.base+"/v1/datasets/"+datasetName(ds)+":mutate",
		`{"mutations":[`+strings.Join(ops, ",")+`]}`)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("mutate %s: status %d: %.200s", datasetName(ds), status, raw)
	}
	var ack struct {
		Generation uint64  `json:"generation"`
		IDs        []int64 `json:"ids"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, fmt.Errorf("mutate decode: %w", err)
	}
	c.checkGen(ds, ack.Generation, classMutate)
	c.out.check("mutate_ack", len(ack.IDs) == nops, "mutate %s: %d ids for %d mutations", datasetName(ds), len(ack.IDs), nops)
	for _, id := range kept {
		c.inserted[ds] = append(c.inserted[ds], int64(id))
	}
	for _, i := range inserts {
		if i < len(ack.IDs) {
			c.inserted[ds] = append(c.inserted[ds], ack.IDs[i])
		}
	}
	return d, nil
}

func (c *serveConn) whatif(ds, focal int) (time.Duration, error) {
	url := fmt.Sprintf("%s/v1/impact:competitors?dataset=%s&focal=%d&k=%d&samples=500&seed=1",
		c.base, datasetName(ds), focal, serveK)
	status, raw, d, err := call(c.client, http.MethodGet, url, "")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("whatif %s focal %d: status %d: %.200s", datasetName(ds), focal, status, raw)
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return 0, fmt.Errorf("whatif decode: %w", err)
	}
	c.checkGen(ds, out.Generation, classWhatIf)
	return d, nil
}

// warmUp runs serveWarm worth of traffic on every connection, in parallel
// like the timed phase. Its outputs are checked like any other; a failure
// fails the run. The connections keep their streams and invariant state.
func warmUp(conns []*serveConn) error {
	perConn := workUnits(serveWarm, time.Second/serveRate) / serveConns
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *serveConn) {
			defer wg.Done()
			c.loop(perConn)
		}(c)
	}
	wg.Wait()
	for _, c := range conns {
		if c.out.failed > 0 {
			return fmt.Errorf("warm-up: %s", strings.Join(c.out.errors, "; "))
		}
		c.out, c.lat = newRunOut(), latencies{}
	}
	return nil
}

// serverCounters is the part of GET /metrics the per-layer metrics read.
type serverCounters struct {
	Cache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int64  `json:"entries"`
	} `json:"cache"`
	Mutations struct {
		Migrated uint64 `json:"cache_results_migrated_total"`
		Dropped  uint64 `json:"cache_results_dropped_total"`
	} `json:"mutations"`
	WhatIf struct {
		Probes uint64 `json:"probes_total"`
		Kept   uint64 `json:"kept_total"`
	} `json:"whatif"`
}

func readCounters(c *http.Client, base string) (serverCounters, error) {
	var sc serverCounters
	status, raw, _, err := call(c, http.MethodGet, base+"/metrics", "")
	if err != nil {
		return sc, err
	}
	if status != http.StatusOK {
		return sc, fmt.Errorf("/metrics: status %d", status)
	}
	return sc, json.Unmarshal(raw, &sc)
}

// journalPoller follows /v1/debug:events during the phase and counts
// store snapshot writes. It polls often enough that the journal ring
// never wraps between reads; a gap is reported in the run record.
type journalPoller struct {
	client    *http.Client
	base      string
	cursor    uint64
	snapshots int
	gaps      int
	err       error
}

func (p *journalPoller) poll() {
	status, raw, _, err := call(p.client, http.MethodGet, fmt.Sprintf("%s/v1/debug:events?since=%d", p.base, p.cursor), "")
	if err != nil || status != http.StatusOK {
		p.err = fmt.Errorf("journal poll: status %d err %v", status, err)
		return
	}
	var ev struct {
		Events []struct {
			Seq  uint64 `json:"seq"`
			Type string `json:"type"`
		} `json:"events"`
		LastSeq uint64 `json:"last_seq"`
	}
	if err := json.Unmarshal(raw, &ev); err != nil {
		p.err = err
		return
	}
	if len(ev.Events) > 0 && ev.Events[0].Seq > p.cursor+1 {
		p.gaps++
	}
	for _, e := range ev.Events {
		if e.Type == store.EventSnapshotWrite {
			p.snapshots++
		}
	}
	p.cursor = ev.LastSeq
}

// run polls until stop is closed, then once more.
func (p *journalPoller) run(stop <-chan struct{}) {
	tick := time.NewTicker(eventPoll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			p.poll()
			return
		case <-tick.C:
			p.poll()
		}
	}
}

// runServe is the serve workload. Set-up is server start plus the three
// dataset loads over HTTP.
func runServe(cfg config) (*runOut, error) {
	o := newRunOut()
	root, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var sock atomic.Int64
	admin := newClient(&sock)
	defer admin.CloseIdleConnections()
	var st *stack
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if st != nil {
			admin.CloseIdleConnections()
			st.close()
		}
		start := time.Now()
		if st, err = startStack(filepath.Join(root, fmt.Sprint(i)), &sock); err != nil {
			return nil, err
		}
		if err := loadDatasets(admin, st.base); err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()

	conns := make([]*serveConn, serveConns)
	for i := range conns {
		conns[i] = newServeConn(i, cfg.seed, st.base, &sock)
		defer conns[i].client.CloseIdleConnections()
	}
	if err := warmUp(conns); err != nil {
		return nil, err
	}
	before, err := readCounters(admin, st.base)
	if err != nil {
		return nil, err
	}
	// The first poll only positions the cursor: the warm-up may have
	// wrapped the journal ring, which is not a gap in the phase.
	poller := &journalPoller{client: newClient(&sock), base: st.base}
	poller.poll()
	poller.snapshots, poller.gaps = 0, 0
	var mem memDelta
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		poller.run(stop)
	}()
	wcharFrom, werr := writtenBytes()
	sockFrom := sock.Load()
	mem.start()
	start := time.Now()
	perConn := workUnits(cfg.seconds, time.Second/serveRate) / serveConns
	var cwg sync.WaitGroup
	for _, c := range conns {
		cwg.Add(1)
		go func(c *serveConn) {
			defer cwg.Done()
			c.loop(perConn)
		}(c)
	}
	cwg.Wait()
	wall := time.Since(start)
	mem.stop()
	wcharTo, werr2 := writtenBytes()
	sockTo := sock.Load()
	close(stop)
	wg.Wait()
	poller.client.CloseIdleConnections()
	if poller.err != nil {
		return nil, poller.err
	}
	after, err := readCounters(admin, st.base)
	if err != nil {
		return nil, err
	}

	lat := latencies{}
	var userBytes int64
	for _, c := range conns {
		o.merge(c.out)
		for class, xs := range c.lat {
			lat[class] = append(lat[class], xs...)
		}
		userBytes += c.userBytes
	}
	o.notes["journal_gaps"] = poller.gaps
	o.notes["snapshot_writes"] = poller.snapshots
	if !cfg.trace {
		endToEnd(o, median(sortedCopy(setups)), lat, wall)
		return o, nil
	}

	zeroLayers(o)
	m := o.metrics
	m["ops.batch_p50_ms"] = lat.p50(classBatch)
	m["ops.whatif_p50_ms"] = lat.p50(classWhatIf)
	mutateLayers(o, lat)
	m["runtime.alloc_bytes_per_op"], m["runtime.gc_per_kop"] = mem.perOp(o.ok)
	if hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses; hits+misses > 0 {
		m["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	migrated, dropped := after.Mutations.Migrated-before.Mutations.Migrated, after.Mutations.Dropped-before.Mutations.Dropped
	if migrated+dropped > 0 {
		m["server.cache_migrated_ratio"] = float64(migrated) / float64(migrated+dropped)
	}
	// The cache removes entries only by LRU eviction, and every miss and
	// migration writes one, so writes minus growth is what was evicted.
	// Concurrent misses on one key refresh rather than add, so this is an
	// upper bound.
	if ev := int64(after.Cache.Misses-before.Cache.Misses+migrated) - (after.Cache.Entries - before.Cache.Entries); ev > 0 {
		m["server.cache_evictions"] = float64(ev)
	}
	if probes := after.WhatIf.Probes - before.WhatIf.Probes; probes > 0 {
		m["server.whatif_keep_rate"] = float64(after.WhatIf.Kept-before.WhatIf.Kept) / float64(probes)
	}
	m["store.snapshot_writes"] = float64(poller.snapshots)
	if werr == nil && werr2 == nil && userBytes > 0 {
		m["store.bytes_per_user_byte"] = float64((wcharTo-wcharFrom)-(sockTo-sockFrom)) / float64(userBytes)
	}
	if err := replay(o, admin, st.base); err != nil {
		return nil, err
	}
	admin.CloseIdleConnections()
	st.close()
	closed = true
	cold, err := coldReopen(filepath.Join(st.dir, datasetName(0)), coldReps)
	if err != nil {
		return nil, err
	}
	m["store.reopen_cold_ms"] = cold * 1e3
	recs, err := generate(serveN, serveD, dataSeed)
	if err != nil {
		return nil, err
	}
	if err := rtreeLayers(o, recs, serveK, deepSetupReps); err != nil {
		return nil, err
	}
	return o, engineReplay(o)
}

// replay re-issues a fixed kspr sample after the phase, alternating
// ?debug=trace (engine phase total in the response) with no_cache (the
// same miss, untraced). It yields the mean engine time and serving
// overhead of a cache miss, and the trace overhead.
func replay(o *runOut, c *http.Client, base string) error {
	var engineNs, overheadNs, tracedNs, rawNs int64
	n := 0
	for r := 0; r < replayRounds; r++ {
		for ds := 0; ds < serveDatasets; ds++ {
			for focal := 0; focal < replayFocals; focal++ {
				body := fmt.Sprintf(`{"dataset":%q,"focal":%d,"k":%d,"no_cache":true}`, datasetName(ds), focal, serveK)
				status, raw, d, err := call(c, http.MethodPost, base+"/v1/kspr?debug=trace", body)
				var q queryWire
				if err == nil && status == http.StatusOK {
					err = json.Unmarshal(raw, &q)
				}
				if err != nil || status != http.StatusOK || q.Trace == nil {
					return fmt.Errorf("traced replay of %s focal %d: status %d err %v", datasetName(ds), focal, status, err)
				}
				engine := int64(q.Trace.TotalMs * 1e6)
				engineNs += engine
				overheadNs += int64(d) - engine
				tracedNs += int64(d)
				n++
				status, raw, d, err = call(c, http.MethodPost, base+"/v1/kspr", body)
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("untraced replay of %s focal %d: status %d err %v: %.200s", datasetName(ds), focal, status, err, raw)
				}
				rawNs += int64(d)
			}
		}
	}
	o.metrics["server.miss_engine_ms"] = float64(engineNs) / float64(n) / 1e6
	o.metrics["server.miss_overhead_ms"] = float64(overheadNs) / float64(n) / 1e6
	o.metrics["obs.trace_overhead_ratio"] = float64(tracedNs) / float64(rawNs)
	return nil
}

// engineReplay runs the replay sample through the library on the
// workload's initial datasets, serially as the server does by default,
// for the core, celltree and lp metrics of serve's cache misses.
func engineReplay(o *runOut) error {
	var acc engineAcc
	for ds := 0; ds < serveDatasets; ds++ {
		recs, err := generate(serveN, serveD, dataSeed+int64(ds))
		if err != nil {
			return err
		}
		db, err := kspr.Open(recs)
		if err != nil {
			return err
		}
		for r := 0; r < replayRounds; r++ {
			for focal := 0; focal < replayFocals; focal++ {
				tr := kspr.NewTrace()
				start := time.Now()
				res, err := db.KSPR(focal, serveK, kspr.WithParallelism(1), kspr.WithTrace(tr))
				if err != nil {
					return err
				}
				acc.add(tr, time.Since(start), res.Stats)
			}
		}
	}
	acc.fill(o.metrics)
	return nil
}
