#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. Everything the go tool writes (build cache, module cache, temporary
# and configuration files) stays under .bench_build, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local \
		go build -o "$build/pando-benchmark" .
) >&2
cd "$root"
exec "$build/pando-benchmark" "$@"
