GO ?= go
FUZZTIME ?= 30s

.PHONY: build vet test test-race conformance fuzz-smoke bench-smoke bench bench-compare bench-cache bench-slabs serve bench-serve

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/...

# Race-check the concurrent layers: the (trace, variant) sweep work queue
# and the pooled streaming converter it drives.
test-race:
	$(GO) test -race ./internal/...

# Full conformance suite: golden corpus, differential battery over the
# 135-trace synthetic suite, and the metamorphic simulator checks.
conformance:
	$(GO) run ./cmd/rebase -selftest

# Run each native fuzz target for FUZZTIME (default 30s). Go only allows
# one -fuzz target per invocation, hence the separate runs.
fuzz-smoke:
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzCVPDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzChampTraceDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzConvert$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzExpBlockDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzQueryParse$$' -fuzztime $(FUZZTIME)

# A fast allocation check of the hot convert+simulate path: the streaming
# source must stay well below the materializing baseline, and a resident
# slab hit (BenchmarkSlabLoad) must run at 0 B/op.
bench-smoke:
	$(GO) test -run xxx -bench 'ConvertSimulate|SweepStreaming|BenchmarkMultiCorePipeline$$|BenchmarkSlab' -benchtime 3x .

bench:
	$(GO) test -bench . -benchmem .

# Paired before/after benchmark comparison: runs the simulator-core
# benchmarks on the working tree and on REF (default HEAD, stashing any
# dirty state for the reference run), then prints ns/op, B/op, allocs/op
# deltas. See EXPERIMENTS.md "Benchmark comparison workflow".
#   make bench-compare                # working tree vs HEAD
#   make bench-compare REF=HEAD~1     # working tree vs previous commit
REF ?= HEAD
bench-compare:
	scripts/bench_compare.sh $(REF) '$(BENCH)'

# Cold/warm result-cache pair against a fresh store: the warm run must be
# near-instant with byte-identical output. See EXPERIMENTS.md "Warm/cold
# cache benchmark workflow"; BENCH_4.json records the headline pair.
STEP ?= 3
bench-cache:
	$(GO) build -o /tmp/rebase-bench ./cmd/rebase
	@dir=$$(mktemp -d); \
	echo "cache dir: $$dir"; \
	/tmp/rebase-bench -exp all -step $(STEP) -cache-dir $$dir >/tmp/bench-cache-cold.out; \
	/tmp/rebase-bench -exp all -step $(STEP) -cache-dir $$dir >/tmp/bench-cache-warm.out; \
	cmp /tmp/bench-cache-cold.out /tmp/bench-cache-warm.out && echo "outputs identical"; \
	rm -rf $$dir

# Run the sweep service in the foreground on the default port with the
# default cache dir. Every job result is written through to disk before
# the job reports done; SIGINT/SIGTERM drains in-flight jobs before
# exiting. Point clients at http://127.0.0.1:8344.
ADDR ?= 127.0.0.1:8344
WORKERS ?= 1
serve:
	$(GO) run ./cmd/rebase serve -addr $(ADDR) -workers $(WORKERS)

# Sweep-service latency benchmark: the perfbench serve workload, a daemon
# over a populated store answering each seeded job twice (disk, then
# memory tier). Prints the op and hit latency percentiles. See
# EXPERIMENTS.md "Service latency benchmark workflow".
bench-serve:
	bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0

# Slab-cold/slab-warm pair with the result cache disabled, so every
# simulation recomputes and the delta isolates the compiled-trace store
# (generation + conversion hoisted out of the warm run). The warm run must
# be faster with byte-identical output. BENCH_8.json records the headline
# pair. See EXPERIMENTS.md "Warm-slab benchmark workflow".
bench-slabs:
	$(GO) build -o /tmp/rebase-bench ./cmd/rebase
	@dir=$$(mktemp -d); \
	echo "slab dir: $$dir"; \
	time /tmp/rebase-bench -exp all -step $(STEP) -no-cache -trace-store-dir $$dir >/tmp/bench-slabs-cold.out; \
	time /tmp/rebase-bench -exp all -step $(STEP) -no-cache -trace-store-dir $$dir >/tmp/bench-slabs-warm.out; \
	cmp /tmp/bench-slabs-cold.out /tmp/bench-slabs-warm.out && echo "outputs identical"; \
	rm -rf $$dir
