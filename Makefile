# Tier-1 verification: what CI runs and what every PR must keep green.
#
#   make tier1     vet + build + race-enabled tests + short shape test + doccheck
#                  + vet/test of the separate perfbench module
#   make shape     the full Figure 4/5 shape-regression suite (slower)
#   make bench     core microbenchmarks (-benchmem)
#
# The exact work ledger (TestCoreLedger) and EXPERIMENTS.md's generated
# blocks (tools/doccheck) are plain tests: `go test ./...` checks both.

GO ?= go

.PHONY: tier1 vet build test shape shape-full perfbench bench doccheck timeseries soak e2e fleet faultclasses

tier1: vet build test shape doccheck perfbench

vet:
	$(GO) vet ./...

# Every package must carry a package-level doc comment and every doc flag
# must exist; the test then reruns each generated block of EXPERIMENTS.md
# (the simulated ones too, since it runs without -short). See tools/doccheck.
doccheck:
	$(GO) run ./tools/doccheck
	$(GO) test ./tools/doccheck

build:
	$(GO) build ./...

# -race guards the ordered worker pool (internal/pool) the sweep and
# campaigns run on; -short keeps the simulation-heavy shape assertions at
# their scaled-down fast variant.
test:
	$(GO) test -race -short ./...

# The short shape-regression test: a scaled-down Figure 4/5 sweep with
# coarse golden-shape assertions (seconds, not minutes).
shape:
	$(GO) test -short -run TestFig45Shape ./internal/experiments

# The benchmark harness is its own module (perfbench/go.mod), so the root
# `go build ./...` never compiles it: vet and test it here so an API it
# uses cannot break unseen.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# The full steady-state shape suite (a little over a minute single-core).
shape-full:
	$(GO) test -run TestFig45Shape -timeout 30m ./internal/experiments

# Microbenchmarks for the hot packages, for local measurement only.
# Nothing here is gated: the exact work ledger is TestCoreLedger, the K=4
# speedup gate TestShardSpeedup, and wall-clock regressions are perfbench's
# job (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem ./internal/engine ./internal/stats

# The resident-service load harness (what CI's simd job runs): concurrent
# clients against the job API, asserting 429-only backpressure, identical
# results for identical requests, and a sub-10ms best warm round-trip.
soak:
	$(GO) test -run 'TestServerSoak' -short -v ./internal/simserver

# Lifecycle end-to-end tests: SIGINT mid-sweep strands nothing and exits
# nonzero; SIGTERM drains the daemon cleanly.
e2e:
	$(GO) test -v -timeout 10m ./cmd/killi-sim ./cmd/killi-simd

# The CI fleet smoke, locally: a 256-die Monte Carlo campaign over two
# schemes, writing the Vmin CDF and yield-vs-voltage CSV.
fleet:
	$(GO) run ./cmd/killi-fleet -dies 256 -schemes killi-1:64,msecc \
		-requests 500 -format csv -o campaign_256.csv
	$(GO) run ./cmd/killi-fleet -dies 256 -schemes killi-1:64,msecc \
		-requests 500 -format table

# DFH misclassification under non-persistent fault classes: the four
# measured tables in EXPERIMENTS.md § Non-persistent faults (persistent
# control, intermittent mix with and without scrubbing, aggressive
# intermittent+aging+transient mix), each against the ground-truth oracle.
faultclasses:
	$(GO) run ./cmd/killi-sim -misclass -workloads xsbench,fft,nekbone \
		-requests 4000 -warmup 2 -classes persistent
	$(GO) run ./cmd/killi-sim -misclass -workloads xsbench,fft,nekbone \
		-requests 4000 -warmup 2 -classes "mixed:i=0.5@0.3"
	$(GO) run ./cmd/killi-sim -misclass -workloads xsbench,fft,nekbone \
		-requests 4000 -warmup 2 -classes "mixed:i=0.5@0.3" -scrub-kernels 1
	$(GO) run ./cmd/killi-sim -misclass -workloads xsbench,fft,nekbone \
		-requests 4000 -warmup 2 -classes "mixed:i=0.3@0.5,a=0.1@0.05,t=2e-08"

# DFH training-dynamics time series for one memory-bound and one
# compute-bound workload (the EXPERIMENTS.md "Training dynamics" data; CI
# uploads timeseries/ as a workflow artifact).
timeseries:
	mkdir -p timeseries
	$(GO) run ./cmd/killi-sim -timeseries timeseries/xsbench.jsonl \
		-trace-events timeseries/xsbench-trace.json \
		-obs-workload xsbench -obs-scheme killi-1:64 -requests 4000 -warmup 0
	$(GO) run ./cmd/killi-sim -timeseries timeseries/nekbone.jsonl \
		-trace-events timeseries/nekbone-trace.json \
		-obs-workload nekbone -obs-scheme killi-1:64 -requests 4000 -warmup 0
