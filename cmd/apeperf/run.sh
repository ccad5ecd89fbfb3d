#!/usr/bin/env bash
# Builds cmd/apeperf and runs it from the repository root with the given
# arguments. The Go build cache, temporary files and the binary stay in
# .apeperf-build at the root, so the benchmark writes nothing outside the
# checkout and no module download is ever attempted.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.apeperf-build"
mkdir -p "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/cmd/apeperf" && go build -o "$build/apeperf" .)
cd "$root"
exec "$build/apeperf" "$@"
