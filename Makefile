GO ?= go

# Single source of truth for the staticcheck pin; CI installs the same
# version (see .github/workflows/ci.yml).
STATICCHECK_VERSION := $(shell cat scripts/staticcheck_version.txt)

.PHONY: build test race racestress bench fmt vet docs lint coverage benchgate largengate load loadgate fuzz crashsmoke ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# racestress repeats the race-detector run over the packages with the most
# lock-heavy concurrency (per-endpoint metrics, trace recording) and the
# R-tree's band-table slot, the one mutable field of a published index, to
# shake out ordering-dependent races a single pass can miss. The second
# line races batch items filling that slot; its -run filter keeps it
# short (the whole core batch suite under -race takes over a minute). CI
# runs both.
racestress:
	$(GO) test -race -count=3 ./internal/server ./internal/obs ./internal/rtree
	$(GO) test -race -count=10 -run 'TestBatchSharesBandTable$$' ./internal/core

# bench writes BENCH_core.json: ns/op per algorithm with the serial engine
# and with a 4-worker engine, plus the speedup ratio, plus the batch
# scheduling sweep (8 focals as one KSPRBatch call vs 8 serial runs), plus the
# live-dataset sweep (WAL apply throughput and incremental-vs-cold kSPR
# maintenance over 48 mutations), plus the what-if sweep (a 16-point
# impact-price frontier and a repricing bisection, recording probe latency
# and the incremental keep rate), plus the large-N sweep (columnar-kernel
# timings at n = 1e3..1e6; the 1e6 point lands in ns_per_op_n1e6, which
# the large-n CI lane gates) — the perf trajectory successive PRs diff
# against. -parallel and -batch are pinned so the file's schema does not
# depend on the host's core count (the recorded "cpus" field tells you how
# much hardware the speedups had to work with; on a 1-CPU container both
# hover near 1.0x by physics).
bench:
	$(GO) run ./cmd/ksprbench -json -name core -scale 0.5 -queries 20 -parallel 4 -batch 8 -mutate 48 -whatif 16 -n 1000000

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# docs runs the documentation gates CI enforces: every relative markdown
# link resolves, and every exported identifier in the core packages has a
# doc comment.
docs:
	./scripts/check_links.sh
	./scripts/check_docs.sh

# lint mirrors CI's staticcheck step when the tool is installed locally
# (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) —
# the pin lives in scripts/staticcheck_version.txt, shared with CI); it
# skips with a note otherwise, so `make ci` works on minimal machines.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, skipping (CI pins staticcheck@$(STATICCHECK_VERSION))" ; \
	fi

# coverage enforces the committed floor in scripts/coverage_floor.txt.
coverage:
	./scripts/check_coverage.sh

# benchgate re-measures the BENCH_core.json workload and fails on >30%
# ns/op regression (BENCH_MAX_REGRESS / BENCH_INJECT override; see
# scripts/check_bench.sh).
benchgate:
	./scripts/check_bench.sh

# largengate re-measures the 1e6-record columnar-kernel sweep and fails on
# >50% regression against BENCH_core.json's ns_per_op_n1e6 map
# (LARGEN_MAX_REGRESS / LARGEN_INJECT override; see
# scripts/check_largen.sh).
largengate:
	./scripts/check_largen.sh

# load refreshes the committed BENCH_load.json baseline: a 10s mixed
# kspr/batch/mutate/what-if run of cmd/ksprload against a self-hosted
# serving stack, with the invariant verifier armed. The summary is
# written before the verdict so violations stay inspectable, but a run
# that exits non-zero must not be committed as a baseline.
load:
	$(GO) run ./cmd/ksprload -duration 10s -conc 8 -name load

# loadgate re-runs a short ksprload workload and fails on p99 or
# error-rate regression against the committed BENCH_load.json
# (LOAD_DURATION / LOAD_MAX_REGRESS / LOAD_INJECT override; see
# scripts/check_load.sh).
loadgate:
	./scripts/check_load.sh

# fuzz smoke-runs the native Go fuzz targets over the untrusted parsers —
# :mutate body decoding (internal/server) and WAL frame / snapshot /
# candidate-index decoding (internal/store) — and over cell clipping
# (internal/celltree: chains of integer-grid cuts checked against
# from-scratch enumeration), for FUZZTIME each, on top of their seed
# corpora (testdata/fuzz/ and the targets' f.Add seeds).
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzDecodeMutateRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeWALPayload -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeIndex -fuzztime $(FUZZTIME)
	$(GO) test ./internal/celltree -run '^$$' -fuzz FuzzCellGeomCut -fuzztime $(FUZZTIME)

# crashsmoke kills a WAL-backed ksprd mid-mutation-stream with SIGKILL,
# restarts it over the same store directory, and asserts recovery restores
# exactly the last acknowledged generation and record count.
crashsmoke:
	$(GO) run ./scripts/crashsmoke

# ci mirrors the GitHub workflow locally: formatting, vet, build, race
# tests, doc gates, the crash-recovery smoke test, one iteration of the
# index-build, reload, store-open, apply (in-memory and WAL-backed), open,
# what-if (PriceToTarget, Frontier), mutation-impact, metrics, cell-tree
# insert, cell-clip and progressive-engine (P-CTA, LP-CTA) benchmarks (so
# they keep compiling and running), lint, the coverage floor, the bench
# regression gate, the large-N regression gate, a short fuzz smoke, and the
# load regression gate.
ci:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) racestress
	./scripts/check_links.sh
	./scripts/check_docs.sh
	$(MAKE) crashsmoke
	$(GO) test -run '^$$' -bench 'BenchmarkBuild|BenchmarkApplyRecordsReload|BenchmarkMetricsObserveParallel|BenchmarkSampleInto|BenchmarkSamplerTick|BenchmarkMetricsScrape' -benchtime 1x ./internal/rtree ./internal/store ./internal/server
	$(GO) test -run '^$$' -bench '^Benchmark(OpenStore|Apply|Open|PriceToTarget|Frontier|MutationImpact)$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^(BenchmarkInsert_|BenchmarkCut$$)' -benchtime 1x ./internal/celltree
	$(GO) test -run '^$$' -bench '^Benchmark(P|LP)CTA_n2k_k10$$' -benchtime 1x ./internal/core
	$(MAKE) lint
	$(MAKE) coverage
	$(MAKE) benchgate
	$(MAKE) largengate
	$(MAKE) fuzz FUZZTIME=5s
	$(MAKE) loadgate

clean:
	rm -f BENCH_ci.json BENCH_largen.json BENCH_load_ci.json cover.out cpu.out mutex.out
