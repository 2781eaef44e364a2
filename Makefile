# Convenience targets for the CAD3 reproduction.

GO ?= go

.PHONY: all build test test-short test-checks bench benchmark benchmark-selftest race vet vet-json fmt cover experiments scenarios city profile linkcheck docs clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -run XXX -bench=. -benchmem ./...

# The CAD3 benchmark (BENCHMARK.json, benchmark/README.md): every
# workload end to end, then traced. Before/after claims rest on this,
# compared with `bash benchmark/run.sh -compare a.json b.json`.
benchmark:
	bash benchmark/run.sh

# The benchmark's selftest: every workload at toy size, under 10 s. The
# benchmark is a module of its own, so `go test ./...` does not reach it.
benchmark-selftest:
	cd benchmark && $(GO) test ./...

race:
	$(GO) test -race ./...

# CPU/heap profiles of the telemetry fast path (wire codec + detection).
# Inspect with: go tool pprof cpu.prof
profile:
	$(GO) test -run XXX -bench 'BenchmarkDetectHotPath|BenchmarkWireCodec' -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/core

# go vet plus the repo-aware analyzers (determinism, pool safety, wire
# layout, zero-alloc, goroutine hygiene, deterministic ordering, lock
# discipline, atomic/plain mixing, wire error exhaustiveness, reach from
# a main package) — see DESIGN.md §11 and §16.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/cad3-vet ./...

# Machine-readable vet: findings and the //cad3:allow suppression census
# as one JSON object. CI runs cad3-vet with -max-allows to keep the
# suppression count from growing unnoticed.
vet-json:
	$(GO) run ./cmd/cad3-vet -json ./...

# Debug build with the runtime pool guard: double-recycles of pooled
# buffers panic with both offending call sites. Every package that hands
# pooled buffers on runs under it.
test-checks:
	$(GO) test -tags cad3_checks ./internal/stream/... ./internal/rsu/... ./internal/vehicle/... ./internal/microbatch/...

# Hermetic markdown cross-reference check (the CI docs job).
linkcheck:
	$(GO) run ./internal/tools/linkcheck \
		README.md DESIGN.md EXPERIMENTS.md OBSERVABILITY.md SCENARIOS.md ROADMAP.md CHANGES.md

docs: vet linkcheck
	test -z "$$(gofmt -l .)"

fmt:
	gofmt -w .

cover:
	$(GO) test ./internal/... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/cad3-bench

# Deterministic replay of the scenarios/ regression corpus — the fault
# studies (leader kill, RSU crash/recover, overload, ...) live there as
# specs — plus the explorer selfcheck (find -> minimize -> archive on an
# injected failure). See SCENARIOS.md for the spec grammar.
scenarios:
	$(GO) run ./cmd/cad3-scenario -selfcheck

# City-scale acceptance: 100k vehicles over a sharded synthetic city
# (replicated brokers per shard, one virtual clock, replica faults
# mid-run). Exits nonzero unless the settlement ledger is clean and the
# per-shard load skew stays within 1.5x the median. See DESIGN.md §15.
city:
	$(GO) run ./cmd/cad3-city -faults

clean:
	rm -f cover.out test_output.txt bench_output.txt cpu.prof mem.prof core.test
