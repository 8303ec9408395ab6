# Developer entry points; CI runs the same targets.

GO ?= go

# Third-party scanners are pinned here (not in go.mod: a tools.go
# dependency would put them on the module graph and break hermetic
# offline builds). `make audit` installs-and-runs them by version, so
# CI and developers resolve identical binaries.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Per-target budget for `make fuzz` (nine targets run back to back).
FUZZTIME ?= 30s

.PHONY: all check build test race lint audit fuzz bench cover fmt vet docs

all: build test

# check is the full pre-push gate: everything CI's required jobs run.
check: build test lint

# build also cross-compiles the two platforms that select the other
# side of internal/osmem's build tags (map_unix.go maps OS pages,
# map_heap.go is the portable heap slice): windows for everything but the
# unix-only harness, darwin for all of it. The standard library
# cross-compiles offline.
build:
	$(GO) build ./...
	GOOS=windows $(GO) build . ./internal/...
	GOOS=darwin $(GO) build ./...

test:
	$(GO) test ./...

# lint is the repo-invariant gate: formatting, go vet, then the
# rapwamlint analyzer suite (internal/lint, cmd/rapwamlint) —
# determinism, errortaxonomy, hotpath, ctxfirst, versionbump,
# globalstate, and the //rapwam:allow annotation audit. Uses only the Go toolchain, so it
# runs identically offline.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/rapwamlint ./...

# audit layers the pinned third-party scanners on top of lint. Both
# resolve their module by version at run time, so the target needs
# network access the first time — which is why it is separate from
# lint and optional outside CI.
audit:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# fuzz exercises the four hostile-input surfaces — the compact trace
# decoder (and its chunk fast path against the general loop), the
# stored-object decoder, the fault-spec parser and the /v1
# experiment parameters — the multi-size cache simulator against
# single-size ones on generated classes and streams, the single-size
# simulator against the reference simulator on generated configurations
# of every associativity, the default engine dispatcher against the
# reference round-robin on generated programs, and the parser and
# compiler on arbitrary program and query text. Seeds live in each
# package's f.Add calls or testdata/fuzz corpus; new findings land in
# testdata/fuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzChunkReader -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzDecodeChunkMatchesReference -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzDecodeObject -fuzztime $(FUZZTIME) ./internal/tracestore/
	$(GO) test -run '^$$' -fuzz FuzzParseFaults -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzMultiSizeMatchesSim -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzSimMatchesReference -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzPrepareParams -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzDispatcherParity -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) ./internal/compile/

# race covers every concurrent subsystem; internal/mem and internal/core
# are here for the staging hand-off, whose drain goroutine delivers
# each full half to the engine's sink while the engine runs on. Under
# -race internal/osmem hands out Go heap by build tag (map_heap.go,
# tested here) — the detector does not see accesses to mapped pages —
# which is what keeps blob.Mem's object pages, read by replays on
# other goroutines, visible to it.
race:
	$(GO) test -race ./internal/core/ ./internal/mem/ ./internal/osmem/ ./internal/trace/ ./internal/cache/ ./internal/experiments/ ./internal/tracestore/ ./internal/bench/ ./internal/service/ ./internal/storage/...

# bench runs the repo's benchmark (cmd/rapwambench, declared in
# BENCHMARK.json): four end-to-end workloads with per-layer
# attribution. The Go Benchmark* functions stay as micro-benchmarks
# (`go test -bench`); they are not the headline.
bench:
	bash cmd/rapwambench/run.sh

# cover collects statement coverage across internal packages and
# enforces the storage+service floor (scripts/check_coverage.sh). The
# storage tests live in internal/storage and exercise its core,
# internal/storage/blob, through the core's API: the second run
# instruments the whole storage tree from them.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	$(GO) test -coverprofile=storage.out -coverpkg=./internal/storage/... ./internal/storage/...
	tail -n +2 storage.out >> coverage.out
	sh scripts/check_coverage.sh coverage.out

# docs checks the published markdown (broken relative links) and runs
# the committed Example functions.
docs:
	sh scripts/check_links.sh
	$(GO) test -run 'Example' . ./internal/cache/

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
