#!/usr/bin/env bash
# Builds the simulator benchmark from the surrounding source tree and runs it.
#
#   bash perfbench/run.sh --workload kv-twitter --seed 1 --seconds 30 --trace 0
#
# Every build output (binary, Go build cache, trace files) stays under
# .bench_build/ at the repository root. The build needs the cornflakes
# module one directory up, so outside a full checkout it fails and the
# script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
exec "$out/perfbench" --commit "$commit" --out "$out" "$@"
