#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload sim-gossip --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (compiler cache, binary) stays under
# .bench_build/ at the repository root, and the toolchain is kept offline:
# the benchmark depends on nothing outside this repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)

# Provenance for the result's metadata line: the commit when the tree is a
# git checkout, otherwise a digest of every Go source and module file.
if ! commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
		| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT="$commit"

cd "$root"
exec "$out/perfbench" "$@"
