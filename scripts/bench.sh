#!/bin/sh
# Benchmark harness: runs the per-experiment benchmarks two ways — serial
# (CF_PARALLEL=1) and parallel (CF_PARALLEL=0 → GOMAXPROCS sweep workers) —
# plus the DES hot-path micro-benchmarks, and folds the results into a JSON
# perf record via cmd/benchjson. The parallel speedup only exceeds ~1.0 on
# multi-core hosts (sweep points fan out across goroutines); the allocs/op
# columns are deterministic on any host.
#
# The output index is derived from the committed BENCH_*.json sequence:
# latest index + 1. A hard-coded OUT default silently reused one index
# across PRs (BENCH_6/BENCH_7 were claimed but never committed), so the
# derivation refuses to run when the committed sequence has a gap — a gap
# means a PR claimed a record it never produced, and that has to be
# reconciled explicitly, not papered over.
#
# Env knobs:
#   BENCHTIME  go test -benchtime for the experiment passes (default 2x)
#   OUT        output JSON path (default BENCH_<latest committed + 1>.json)
#   PREV       previous record for the speedup_vs_prev columns (default
#              BENCH_<latest committed>.json; set PREV= to skip)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2x}"

latest=0
earliest=0
for f in $(git ls-files 'BENCH_*.json'); do
    idx="${f#BENCH_}"
    idx="${idx%.json}"
    case "$idx" in
        *[!0-9]*|'') echo "bench.sh: unparseable bench record name: $f" >&2; exit 1 ;;
    esac
    idx=$((idx + 0))
    if [ "$idx" -gt "$latest" ]; then latest="$idx"; fi
    if [ "$earliest" -eq 0 ] || [ "$idx" -lt "$earliest" ]; then earliest="$idx"; fi
done

if [ -z "${OUT:-}" ]; then
    if [ "$latest" -eq 0 ]; then
        echo "bench.sh: no committed BENCH_*.json found; set OUT explicitly" >&2
        exit 1
    fi
    # Contiguity is checked from the earliest committed record, not from 1:
    # the repo history may be anchored mid-sequence (this tree starts at
    # BENCH_5), and records before the anchor were never claimed here.
    i="$earliest"
    while [ "$i" -le "$latest" ]; do
        if ! git ls-files --error-unmatch "BENCH_$i.json" >/dev/null 2>&1; then
            echo "bench.sh: committed bench sequence has a gap: BENCH_$i.json is missing" >&2
            echo "bench.sh: a past PR claimed a record it never committed; reconcile the" >&2
            echo "bench.sh: sequence (see CHANGES.md) or set OUT explicitly to override" >&2
            exit 1
        fi
        i=$((i + 1))
    done
    OUT="BENCH_$((latest + 1)).json"
fi

# The previous committed record anchors the PR-over-PR speedup_vs_prev
# columns; PREV= (explicitly empty) skips the comparison.
if [ -z "${PREV+set}" ] && [ "$latest" -gt 0 ]; then
    PREV="BENCH_$latest.json"
fi

mkdir -p artifacts

echo "== serial pass (CF_PARALLEL=1, benchtime=$BENCHTIME)"
CF_PARALLEL=1 go test -run '^$' -bench '^Benchmark(Fig|Table|Ext|Cluster|Chaos|Rpc)' \
    -benchmem -benchtime "$BENCHTIME" . | tee artifacts/bench-serial.txt

echo "== DES hot-path micro-benchmarks (serial only)"
go test -run '^$' -bench '^Benchmark(EngineScheduleDispatch|CoreServeJob)$' \
    -benchmem ./internal/sim | tee -a artifacts/bench-serial.txt

echo "== parallel pass (CF_PARALLEL=0 -> GOMAXPROCS workers, benchtime=$BENCHTIME)"
CF_PARALLEL=0 go test -run '^$' -bench '^Benchmark(Fig|Table|Ext|Cluster|Chaos|Rpc)' \
    -benchmem -benchtime "$BENCHTIME" . | tee artifacts/bench-parallel.txt

echo "== fold into $OUT"
go run ./cmd/benchjson \
    -serial artifacts/bench-serial.txt \
    -parallel artifacts/bench-parallel.txt \
    ${PREV:+-prev "$PREV"} \
    -out "$OUT" \
    -note "Quick scale; parallel pass uses GOMAXPROCS sweep workers, so speedup_parallel is ~1.0 on single-core hosts (see host_cores) and grows with cores; reports are byte-identical either way (fingerprint gate in scripts/check.sh). speedup_vs_prev compares wall-clock against the previous committed record, which may have been taken on a different/differently-loaded host — read it alongside allocs_vs_prev, which is deterministic everywhere."
