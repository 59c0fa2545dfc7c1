#!/usr/bin/env bash
# Pre-PR gate: formatting, vet, build, full tests, and the race detector on
# the packages with parallel hot paths. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [[ -n "$fmt" ]]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
# The HTTP benchmark is its own Go module (replacing repro with this tree),
# so ./... above never compiles it: vet and short-test it against the
# engine API here, outside any go.work.
GOWORK=off go -C httpbench vet .
GOWORK=off go -C httpbench test -short -count=1 .
# The race block runs at GOMAXPROCS=1 and at the host's core count, so
# behaviour that depends on the core count (a goroutine that only starts
# with >1 worker, a race only real parallelism interleaves) cannot hide.
# Every run is uncached: the test cache does not key on GOMAXPROCS.
race_block() {
    go test -race -count=1 ./internal/tensor ./internal/gnn ./internal/inkstream \
        ./internal/obs ./internal/server ./internal/persist \
        ./internal/shard ./internal/leakcheck

    # The PR4 hot paths deserve fresh (uncached) race runs: the sharded
    # grouper under repeated multi-batch churn and server-side coalescing
    # under concurrent conflicting writers.
    go test -race -count=1 -run 'TestShardedGrouperStress|TestShardedGroupingEquivalence|TestCoalesce' \
        ./internal/inkstream ./internal/server

    # The PR6 router fan-out likewise: cross-shard and 1-shard exactness and
    # concurrent conflicting writers against the partitioned deployment,
    # uncached.
    go test -race -count=1 -run 'TestCrossShardBitExact|TestSingleShardMatchesApply|TestRouterConcurrentWriters' \
        ./internal/shard

    # The PR8 overlapped exchange runs every shard's boundary and interior
    # phases concurrently with the router-side record bucketing, and the
    # engine's split-layer protocol shares scratch state between the phases —
    # both deserve fresh race runs, as does subscription maintenance under the
    # bit-exactness streams.
    go test -race -count=1 -run 'TestSubscription|TestSplitRound|TestGhostRow' \
        ./internal/shard ./internal/inkstream

    # The PR9 tiered row store serves lock-free reads while the writer seals
    # epochs and the background worker writes back and evicts frames; the
    # whole store surface (publication seam, fault/evict races, crash
    # recovery, server page-cache stats) gets a fresh race run.
    go test -race -count=1 -run 'TestTiered|TestSetRowStore|TestPageCache' \
        ./internal/persist ./internal/inkstream ./internal/server ./internal/experiments

    # The PR7 round profiler and burn-rate alerting touch every shard's stage
    # timings from the round goroutine while HTTP readers snapshot them, so
    # they get fresh race runs too.
    go test -race -count=1 \
        -run 'TestRouterRoundProfiler|TestRouterObservabilityEndpoints|TestRouterSLOBurnRate|TestAlertEngine|TestServerSLOAlerts' \
        ./internal/shard ./internal/obs ./internal/server

    # The PR10 black box captures bundles from a worker goroutine while the
    # pipeline keeps mutating every source it serializes, and the fail-stop
    # latch races the round goroutines against HTTP readers; both get fresh
    # race runs, as does the runtime collector under concurrent scrapes.
    go test -race -count=1 -run 'TestBlackBox|TestFailStop|TestBundle|TestRouterBundle|TestRuntime|TestPageFaultTraceExemplars' \
        ./internal/obs ./internal/server ./internal/shard
}
for procs in $(printf '%s\n' 1 "$(nproc)" | sort -un); do
    echo "check.sh: race block at GOMAXPROCS=$procs"
    GOMAXPROCS=$procs race_block
done

# Observability must stay essentially free on the engine hot path and the
# full pipeline. The gate runs paired benchmarks and is sensitive to box
# load, so it is opt-in: CHECK_OBS=1 scripts/check.sh
if [[ "${CHECK_OBS:-0}" == "1" ]]; then
    scripts/obs_overhead.sh
else
    echo "check.sh: skipping obs overhead gate (set CHECK_OBS=1 to run)"
fi

echo "check.sh: all gates passed"
