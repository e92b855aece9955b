# Convenience targets for the PMSB reproduction.

GO ?= go

.PHONY: all build vet test test-short bench bench-all ci reproduce quick-reproduce examples clean

all: build vet test

# Everything .github/workflows/ci.yml runs, in the same order. The
# fuzz passes are fail-soft: ten seconds of coverage-guided input per
# parser catches decoding bugs early, but a fuzz-capable toolchain is
# not required to pass CI. simbench/ is a separate module (built
# against this one via `replace pmsb => ../`), so it gets its own vet
# and test step.
ci:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	cd simbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -run TestJobsDeterminism -count=1 ./cmd/pmsbsim
	-$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime 10s ./internal/obs/
	-$(GO) test -run '^$$' -fuzz FuzzReadTrace -fuzztime 10s ./internal/workload/
	-$(GO) test -run '^$$' -fuzz FuzzParseGroups -fuzztime 10s ./cmd/pmsbflow/
	# Runtime-introspection smoke: a sharded run with live progress and a
	# self-profile dump, rendered back through pmsbstat -runtime.
	$(GO) run ./cmd/pmsbsim -experiment fattree-incast -quick -shards 4 \
		-progress=100ms -runtimestats ci_runtime.rtstats > /dev/null
	$(GO) run ./cmd/pmsbstat -runtime ci_runtime.rtstats > /dev/null
	@rm -f ci_runtime.rtstats
	# k=32 smoke: the arena-backed 49k-port fabric builds with zero slab
	# overflow, wires correctly, and a short sharded horizon stays
	# byte-identical to the serial run.
	$(GO) test -race -count=1 -run 'TestFatTree32' ./internal/topo/
	$(GO) test -race -count=1 -run TestDifferentialFatTree32ShortHorizon .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Key hot-path benchmarks, recorded as JSON so the perf trajectory is
# tracked from PR to PR (BENCH_1.json was the first point, BENCH_10.json
# the current one; benchjson prints the delta against BENCH_BASE but
# never fails the build — timings on shared machines are a trend line,
# not a gate). Each benchmark runs BENCHCOUNT times and benchjson keeps
# the fastest run: min-of-N suppresses one-off scheduler noise, which
# routinely inflates single runs by 5-15% on shared machines — deltas
# under ~5% between min-of-3 reports are still noise, not signal.
# Parallel speedups additionally depend on the machine's core count:
# numbers recorded on a single-core runner understate every sharded
# row. BENCHTIME trades precision for wall time — CI uses a short
# value. Run `make bench-all` for every paper table/figure. The regex
# is anchored, so the sharded fat-tree and traced benchmarks must be
# listed on their own — the BenchmarkFatTree alternative does not
# cover them.
KEY_BENCHES ?= ^(BenchmarkPacketForwarding|BenchmarkDCTCPFlow|BenchmarkLeafSpineFlows|BenchmarkFatTree|BenchmarkFatTreeSharded|BenchmarkFatTree16Sharded|BenchmarkFatTree32Sharded|BenchmarkFatTreeTraced|BenchmarkFlowSimFatTree|BenchmarkFatTreeBuild|BenchmarkTraceEncodeJSONL|BenchmarkTraceEncodeBinary|BenchmarkEngineChurn|BenchmarkPMSBDecision|BenchmarkMQECNDecision)$$
BENCHTIME ?= 1s
BENCHCOUNT ?= 3
BENCH_OUT ?= BENCH_10.json
BENCH_BASE ?= BENCH_9.json
# The runtime self-profile recorded next to BENCH_OUT shares its stem.
BENCH_RTSTATS = $(BENCH_OUT:.json=.rtstats)

bench:
	$(GO) test -run '^$$' -bench "$(KEY_BENCHES)" -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT) -baseline $(BENCH_BASE)
	# Fail-soft: record the sharded fat-tree's runtime self-profile next
	# to the benchmark numbers, so perf regressions come with the
	# coordinator's own accounting of where the time went.
	-$(GO) run ./cmd/pmsbsim -experiment fattree -shards 4 \
		-runtimestats $(BENCH_RTSTATS) > /dev/null && \
		$(GO) run ./cmd/pmsbstat -runtime $(BENCH_RTSTATS)

# Every benchmark (one per paper table/figure plus engine micro-benches).
bench-all:
	$(GO) test -bench . -benchmem .

# Regenerate every table and figure at full fidelity (~10 minutes).
reproduce:
	$(GO) run ./cmd/pmsbsim -all > results_full.txt
	@echo "results written to results_full.txt"

# The same sweep with reduced durations (~1 minute).
quick-reproduce:
	$(GO) run ./cmd/pmsbsim -all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multiservice
	$(GO) run ./examples/schedulers
	$(GO) run ./examples/deadlines
	$(GO) run ./examples/leafspine

clean:
	$(GO) clean ./...
