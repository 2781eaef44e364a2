#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it from the checkout root. Everything the go toolchain writes (build
# cache, its own config and telemetry) is pointed inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/benchmark"
	env -u GOFLAGS -u GOWORK HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
		go build -o "$build/cad3-benchmark" .
)
cd "$root"
exec "$build/cad3-benchmark" "$@"
