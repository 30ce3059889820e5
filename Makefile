# Developer entry points mirroring the CI jobs (.github/workflows/ci.yml).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint fuzz-smoke serve bench bench-smoke size examples

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs gofmt and go vet; staticcheck runs too when it is on PATH
# (CI installs it, the offline dev container may not have it). The
# invariants a custom analyzer would check are tier-1 tests
# (docs/LINTING.md).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# fuzz-smoke is CI's fuzz-smoke job: FUZZTIME of each fuzz target, and
# the one list of them. In order: the Z-order round trip, the graph
# loader, CCAM's page placement against its one-page rule, the page
# round trip, the traversal kernel against the in-memory
# reference, the frontier's node table against a Go map, the clustered
# B+-tree against a sorted map, the GET decoder against the url.Values
# reference, the response encoder against encoding/json, the WAL record
# decoder against its encoder, the router's leg merge over arbitrary
# leg partitions, the shard-set manifest decoder against its invariants,
# the oracle file loader against its writer, the collective query's
# early stop against the drain-then-greedy answer, and a snapshot's
# meta.json, which OpenPath opens or rejects as a bad snapshot.
fuzz-smoke:
	$(GO) test -run FuzzZOrder -fuzz FuzzZOrder -fuzztime $(FUZZTIME) ./internal/geo/
	$(GO) test -run FuzzLoadGraph -fuzz FuzzLoadGraph -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run FuzzCCAMBuild -fuzz FuzzCCAMBuild -fuzztime $(FUZZTIME) ./internal/ccam/
	$(GO) test -run FuzzPageRoundTrip -fuzz FuzzPageRoundTrip -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run FuzzFrontierVsReference -fuzz FuzzFrontierVsReference -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run FuzzNodeTable -fuzz FuzzNodeTable -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run FuzzBTreeOps -fuzz FuzzBTreeOps -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run FuzzQueryDecode -fuzz FuzzQueryDecode -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run FuzzResponseEncode -fuzz FuzzResponseEncode -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run FuzzWALRecord -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run FuzzLegMerge -fuzz FuzzLegMerge -fuzztime $(FUZZTIME) ./internal/shard/
	$(GO) test -run FuzzSetManifest -fuzz FuzzSetManifest -fuzztime $(FUZZTIME) ./internal/shard/
	$(GO) test -run FuzzOracleLoad -fuzz FuzzOracleLoad -fuzztime $(FUZZTIME) ./internal/alt/
	$(GO) test -run FuzzCollectiveStop -fuzz FuzzCollectiveStop -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run FuzzOpenPathMeta -fuzz FuzzOpenPathMeta -fuzztime $(FUZZTIME) .

# examples runs the four example programs, the public API's only
# end-to-end users; each checks its own story and exits non-zero when a
# step fails, which fails the target.
EXAMPLES = quickstart citysearch tourplanner importer

examples:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# bench runs the benchmark spine BENCHMARK.json declares: four served
# workloads, end-to-end metrics with their regression bounds
# (bench/README.md). `go run ./bench -workload <w> -trace 1` adds the
# per-layer run.
bench:
	$(GO) run ./bench

# bench-smoke is CI's "Micro-benchmarks (smoke)" step: one iteration of
# every Benchmark* in the packages a layer's cost is judged by, so they
# keep compiling and running. This is the one list of those packages.
BENCH_PKGS = ./internal/core/ ./internal/ccam/ ./internal/graph/ ./internal/rtree/ ./snap/ ./internal/shard/ \
	./internal/btree/ ./internal/invindex/ ./internal/sig/ ./internal/storage/ ./internal/engine/ \
	./internal/server/ ./internal/experiments/baselines/

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# size prints two line counts the project tracks (ROADMAP.md): the non-test Go
# outside bench/, internal/experiments/ and testdata, and the non-test Go
# of the packages the served binary links.
size:
	@printf 'non-test lines outside bench/ and internal/experiments/: '
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './internal/experiments/*' \
		-not -path '*/testdata/*' | xargs cat | wc -l
	@printf 'non-test lines linked by cmd/dsks-serve: '
	@$(GO) list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' ./cmd/dsks-serve | xargs cat | wc -l

# serve boots the HTTP query server on a generated dataset (docs/SERVING.md).
serve:
	$(GO) run ./cmd/dsks-serve -addr :8080 -preset SYN -scale 200 -index SIF
