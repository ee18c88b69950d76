#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ at the checkout root; no network is used.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The parent module must be present: the benchmark builds it from source.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no dima module at $root" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gomodcache" "$out/home"
(cd "$here" && go build -o "$out/perfbench" .) >&2
# Identify the code measured: the commit when git knows it, else a
# hash of the sources.
commit=""
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
fi
if [ -z "$commit" ]; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print \
		| LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" "$@"
