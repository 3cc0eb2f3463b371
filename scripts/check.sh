#!/bin/sh
# Full pre-merge gate: vet, build everything, then the test suite under the
# race detector (the fault-injection soak included). Use `go test -short`
# directly for a quicker loop that skips the soak.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l (every tracked or new Go file is gofmt-clean)"
unformatted=$(gofmt -l $(git ls-files --cached --others --exclude-standard '*.go'))
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo "gofmt: the files above need gofmt -w" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== golden trace export (byte-stable Chrome trace JSON)"
go test ./internal/experiments -run 'TestTraceGoldenExport|TestTraceProperties'

echo "== batching determinism gate (burst cap 1 bit-identical to unbatched) + smoke"
go test -short ./internal/experiments -run 'TestBatchingGoldenAtB1|TestBatchingSmoke'

echo "== cluster fabric smoke (2-shard rack end to end through the ToR switch)"
go test -short ./internal/experiments -run 'TestClusterSmoke'
go test -short ./internal/driver -run 'TestClusterEndToEnd|TestClusterWireIDsDisjoint|TestClusterTopologyGrowthStable'

echo "== chaos smoke (kill-one-shard point: crash/recovery, failover, frame ledger)"
go test -short ./internal/experiments -run 'TestChaosSmoke|TestChaosDeterministic'
go test -short ./internal/driver -run 'TestClusterCrashRecovery|TestCrashDrainsPending|TestFailoverRouting'
go test -short ./internal/loadgen -run 'TestHedge|TestBucketCompleted'

echo "== rpc chain smoke (call/reply framing, fan-in, shed propagation, NIC offload on rpc and KV)"
go test -short ./internal/rpc -run 'TestSingleHopAllSystems|TestShedPropagatesUpstream|TestFanInLateReplyProperty|TestOffloadMovesSerializationOffHost'
go test -short ./internal/driver -run 'TestKVOffloadMovesSerializationOffHost|TestKVOffloadHoldsValuesAcrossPut'

echo "== parallel-harness fingerprint gate (serial == parallel across every experiment, rpc included)"
go test ./internal/experiments -run 'TestSerialParallelFingerprints|TestFingerprintSensitivity'

echo "== cache-model equivalence gate (flat positional LRU == per-set-slice and stamp-LRU oracles; range walk == per-line loop; Contains neutral)"
go test ./internal/cachesim -run 'Equivalence|Differential|Contains'

echo "== perfbench module (vet, build, BENCHMARK.json in step with the reported metrics)"
# perfbench/ is its own Go module, so ./... above never reaches it; an API
# change that breaks the benchmark would otherwise pass. Same module env as
# perfbench/run.sh.
(cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off &&
    go vet . && go build -o /dev/null . && go test -run TestBenchmarkJSONMatches .)

echo "== zero-alloc hot-path pins (DES engine, core, meter, cache fill, frame path, range walk, message pool, derived views, pipeline job FIFO, switch forwarding, rpc frame build, SendObject, loadgen request/reply)"
go test ./internal/sim ./internal/costmodel ./internal/nic ./internal/cachesim ./internal/core ./internal/mem ./internal/driver ./internal/fabric ./internal/rpc ./internal/netstack ./internal/loadgen -run 'AllocFree|TestTimerStaleAfterRecycle'

echo "== go test -race ./... (includes the parallel sweep smoke)"
# The experiments package runs every reproduction at Quick scale; under the
# race detector that outgrew go test's default 10-minute per-package limit.
go test -race -timeout 45m ./...

echo "== check OK"
