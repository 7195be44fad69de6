#!/usr/bin/env bash
# Builds the trust-service benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload authz-read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, durable stores, trace files) stays under the
# build directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
