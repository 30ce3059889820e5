# Developer entry points mirroring the CI jobs (.github/workflows/ci.yml).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint lint-report fuzz-smoke serve serve-smoke chaos-smoke wal-smoke shard-smoke replica-smoke bench bench-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs gofmt (the analyzers' testdata is fixture text, not source), go
# vet, the project's own analyzers (cmd/dsks-lint) and their self-tests;
# staticcheck runs too when it is on PATH (CI installs it, the offline dev
# container may not have it).
lint:
	@unformatted=$$(gofmt -l . | grep -v /testdata/); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) build -o $(CURDIR)/bin/dsks-lint ./cmd/dsks-lint
	$(CURDIR)/bin/dsks-lint ./...
	$(GO) test ./internal/analysis/...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# lint-report mirrors the CI lint-report job: the full analyzer run with
# the machine-readable SARIF output CI uploads as an artifact
# (docs/LINTING.md). The file is written even when findings make the
# run fail, so it can be inspected afterwards.
lint-report:
	$(GO) build -o $(CURDIR)/bin/dsks-lint ./cmd/dsks-lint
	$(CURDIR)/bin/dsks-lint -format=sarif -o dsks-lint.sarif -debug ./...

fuzz-smoke:
	$(GO) test -run FuzzZOrder -fuzz FuzzZOrder -fuzztime $(FUZZTIME) ./internal/geo/
	$(GO) test -run FuzzLoadGraph -fuzz FuzzLoadGraph -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run FuzzPageRoundTrip -fuzz FuzzPageRoundTrip -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run FuzzFrontierVsReference -fuzz FuzzFrontierVsReference -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run FuzzNodeTable -fuzz FuzzNodeTable -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run FuzzBTreeOps -fuzz FuzzBTreeOps -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run FuzzQueryDecode -fuzz FuzzQueryDecode -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run FuzzResponseEncode -fuzz FuzzResponseEncode -fuzztime $(FUZZTIME) ./internal/server/

# bench runs the benchmark spine BENCHMARK.json declares: four served
# workloads, end-to-end metrics with their regression bounds
# (bench/README.md). `go run ./bench -workload <w> -trace 1` adds the
# per-layer run.
bench:
	$(GO) run ./bench

# bench-smoke is CI's "Micro-benchmarks (smoke)" step: one iteration of
# every Benchmark* in the packages a layer's cost is judged by, so they
# keep compiling and running. This is the one list of those packages.
BENCH_PKGS = ./internal/core/ ./internal/ccam/ ./internal/graph/ ./internal/rtree/ ./internal/shard/ \
	./internal/btree/ ./internal/invindex/ ./internal/sig/ ./internal/storage/ ./internal/engine/ \
	./internal/server/

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# serve boots the HTTP query server on a generated dataset (docs/SERVING.md).
serve:
	$(GO) run ./cmd/dsks-serve -addr :8080 -preset SYN -scale 200 -index SIF

# serve-smoke mirrors the CI job: boot a deliberately under-provisioned
# server, hammer it asserting zero 5xx + warm cache + load shedding, then
# SIGTERM it and require a clean drain (exit 0).
serve-smoke:
	$(GO) build -o $(CURDIR)/bin/dsks-serve ./cmd/dsks-serve
	./scripts/serve-smoke.sh $(CURDIR)/bin/dsks-serve

# chaos-smoke mirrors the CI job: boot a checksummed, chaos-enabled server,
# inject read faults over /v1/chaos, and assert the breaker sheds (503 +
# Retry-After), never serves corrupt bytes, and recovers after the faults
# clear (docs/ROBUSTNESS.md).
chaos-smoke:
	$(GO) build -o $(CURDIR)/bin/dsks-serve ./cmd/dsks-serve
	./scripts/chaos-smoke.sh $(CURDIR)/bin/dsks-serve

# shard-smoke mirrors the CI job: boot dsks-serve with the road network
# sharded 4 ways behind the scatter-gather router (partial-result policy,
# per-shard WALs), hammer the mixed read/write mix -strict, take one
# shard down via shard-targeted chaos and assert coherent degradation
# (206 partials naming the failed shard, healthy-shard inserts still
# acked, never a half-merged body), then heal and require full recovery
# (docs/SHARDING.md).
shard-smoke:
	$(GO) build -o $(CURDIR)/bin/dsks-serve ./cmd/dsks-serve
	./scripts/shard-smoke.sh $(CURDIR)/bin/dsks-serve

# replica-smoke mirrors the CI job: boot 4 shards with one WAL-shipped
# read replica each, verify the replicas converge after an insert storm,
# kill one shard's primary storage mid-read-hammer and require ZERO 5xx
# and ZERO 206 (failover, not degradation), then heal and assert the
# primary is reclaimed and fresh writes replicate (docs/SHARDING.md,
# docs/ROBUSTNESS.md).
replica-smoke:
	$(GO) build -o $(CURDIR)/bin/dsks-serve ./cmd/dsks-serve
	./scripts/replica-smoke.sh $(CURDIR)/bin/dsks-serve

# wal-smoke mirrors the CI job: boot a WAL-backed server, kill -9 it
# mid-insert-storm, reboot on the same log, and assert every acknowledged
# write survived and the group commit batches >1 record per fsync
# (docs/DURABILITY.md).
wal-smoke:
	$(GO) build -o $(CURDIR)/bin/dsks-serve ./cmd/dsks-serve
	./scripts/wal-smoke.sh $(CURDIR)/bin/dsks-serve
