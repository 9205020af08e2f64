#!/bin/sh
# ci.sh — the full verification pipeline, tiered into named stages.
# Everything here must pass before a change lands: formatting, build + vet +
# the repllint analyzer suite, the complete test suite, the race detector on
# every package, the chaos / self-healing / adaptive-loop / integrity /
# overload passes under -race, coverage on the planner core, and a single pinned-GOMAXPROCS pass
# of every benchmark followed by a regression diff against the previous
# snapshot.
#
# CI_STAGES selects a subset, e.g.:
#
#	CI_STAGES="fmt lint test" scripts/ci.sh
#
# Stages: fmt lint lintx test race chaos heal adapt scrub overload cover bench.
# The default runs them all, in order, and prints a wall-clock summary at the
# end (the PR-gate workflow runs each stage as its own named step instead).
set -eu

cd "$(dirname "$0")/.."

CI_STAGES="${CI_STAGES:-fmt lint lintx test race chaos heal adapt scrub overload cover bench}"

# gofmt with -s: any unformatted file fails the stage.
stage_fmt() {
    unformatted=$(gofmt -s -l .)
    if [ -n "$unformatted" ]; then
        echo "unformatted files (gofmt -s):" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

# Build, vet, and the custom analyzer suite (internal/lint): determinism,
# rng-stream labels, sorted iteration, float compares, telemetry naming,
# error discipline, span balance. Any finding fails the build; see
# DESIGN.md §11 for the rules and the //repllint:allow escape hatch.
stage_lint() {
    go build ./...
    go vet ./...
    go run ./cmd/repllint ./...
}

# The interprocedural suite as a strict gate, with the machine-readable
# finding stream archived next to the BENCH_*.json snapshots: the whole-
# module run (determinism taint, goroutine leaks, hotpath-alloc against the
# committed .repllint-hotpath.json baseline) plus -strict-allow, which turns
# any //repllint:allow that suppresses nothing into an error. A failure
# reprints the findings with their full call chains for the log.
stage_lintx() {
    stamp=$(date -u +%Y%m%dT%H%M%SZ)
    out="REPLLINT_${stamp}.json"
    if go run ./cmd/repllint -strict-allow -json ./... >"$out"; then
        echo "repllint strict run clean; archived $out"
    else
        echo "repllint strict run failed (archived $out):" >&2
        go run ./cmd/repllint -strict-allow -chains ./... >&2 || true
        return 1
    fi
}

# The complete test suite, plus two cold -count=1 pins outside any warm
# test cache: the metrics endpoint smoke test and the span-forest
# determinism goldens (same seed ⇒ byte-identical httpsim span export,
# deterministic trace IDs, stable JSONL and Chrome encodings).
stage_test() {
    go test ./...
    go test -count=1 -run TestMetricsEndpoint ./internal/webserve/
    go test -count=1 -run 'TestTraceGolden|TestIDGenDeterministicAndNonZero|TestJSONLRoundTripAndDeterminism|TestChromeExportValidAndDeterministic' \
        ./internal/httpsim/ ./internal/trace/
}

# Module-wide race detector, not a hand-picked list, so a new concurrent
# package can never silently skip it.
stage_race() {
    go test -race ./...
}

# The robustness surface end to end under the race detector: fault-plan
# determinism, injector middleware, client retry + repository fallback, the
# full-outage acceptance path, cluster kill/restart, and the simulator's
# degraded mode.
stage_chaos() {
    go test -race -count=1 -run 'Fault|Generate|Injector|Middleware|Retr|Fall|Backoff|Timeout|Outage|Chaos|Degraded|KillAndRestart|GracefulShutdown|Healthz|WriteError' \
        ./internal/faults/ ./internal/webserve/ ./internal/httpsim/ ./internal/experiments/
}

# The self-healing control plane end to end under the race detector:
# repair-plan determinism at several worker counts, the probe state
# machine, the heal-under-kill acceptance path, the composed reconciler
# (all three loops on one cluster, step-driven and as a live kill/restart
# soak repeated five times), the live plan switch (make-before-break
# ApplyPlan under fetch load, and incremental reference-database rebuilds
# matching fresh builds, both repeated five times), the circuit breaker,
# and the jitter stream isolation.
stage_heal() {
    go test -race -count=1 ./internal/repair/ ./internal/controller/
    go test -race -count=5 -run 'TestReconcilerComposedInvariants|TestReconcilerSoakKillRestart' ./internal/controller/
    go test -race -count=5 -run 'TestApplyPlanMakeBeforeBreak|TestApplyPlanAllOrNothing' ./internal/webserve/
    go test -race -count=5 -run 'TestRebuildMatchesFreshBuild' ./internal/htmlrefs/
    go test -race -count=1 -run 'Breaker|Jitter|KillSiteRaces|Recovery' \
        ./internal/webserve/ ./internal/experiments/
}

# The adaptive planning loop under the race detector: the streaming
# estimator (concurrent tap ingestion, snapshot determinism, the count-min
# sketch), the drift detector's hysteresis, the access-log taps on the live
# server and the simulator, the reconciler's delta-only re-plan shipping, and the
# flash-crowd study's tracking + bit-reproducibility pins.
stage_adapt() {
    go test -race -count=1 ./internal/estimate/
    go test -race -count=1 -run 'Adapt|AccessTap|ChangeDelta|FlashCrowd' \
        ./internal/controller/ ./internal/webserve/ ./internal/httpsim/ \
        ./internal/repair/ ./internal/experiments/
}

# The end-to-end integrity surface under the race detector: the
# self-verifying payload codec (round-trip, provenance, forged-checksum
# rejection), the gray-failure modes (rot, limping, partial partitions),
# checksum-mismatch-is-retryable on the client, hedged requests, the
# latency-aware probe loop, the scrub loop's find/repair/converge cycle with
# its chaos soak, and the scrub study's acceptance + reproducibility pins;
# the payload byte pins, the combined header CRC against the streaming one,
# the client's body reads (truncated, oversized declaration, chunked); then
# a short fuzz of the payload codec beyond its committed corpus.
stage_scrub() {
    go test -race -count=1 -run 'Payload|Verify|Corrupt|Rot|Limp|Partition|Gray|Hedge|Scrub|Latency|BodyCRC|ReadBody' \
        ./internal/webserve/ ./internal/faults/ ./internal/controller/ \
        ./internal/experiments/
    go test -run '^$' -fuzz FuzzPayloadRoundTrip -fuzztime 10s ./internal/webserve/
}

# The overload-robustness surface end to end under the race detector: the
# admission primitives (CoDel sojourn control, AIMD concurrency limits,
# retry budgets, brownout tiers), the 429 + Retry-After and deadline-
# propagation paths through the live cluster, the probe loop treating a 429
# shed as alive, half-open breaker concurrency,
# hedge-leg shutdown hygiene, the flash-crowd load-spike plans, and the
# metastable-failure study's acceptance + bit-reproducibility pins.
stage_overload() {
    go test -race -count=1 ./internal/admission/
    go test -race -count=1 -run 'Admission|CoDel|AIMD|RetryBudget|RetryAfter|Deadline|Brownout|Overload|LoadSpike|Breaker|HedgeShutdown' \
        ./internal/webserve/ ./internal/faults/ ./internal/controller/ ./internal/experiments/
}

# Planner-core statement coverage against a floor.
stage_cover() {
    : "${CI_CORE_COVER_FLOOR:=90}"
    echo "(internal/core floor ${CI_CORE_COVER_FLOOR}%)"
    cover_out=$(mktemp)
    go test -count=1 -coverprofile="$cover_out" ./internal/core/
    core_cover=$(go tool cover -func="$cover_out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f "$cover_out"
    echo "internal/core statement coverage: ${core_cover}%"
    if awk -v c="$core_cover" -v floor="$CI_CORE_COVER_FLOOR" 'BEGIN { exit !(c < floor) }'; then
        echo "internal/core coverage ${core_cover}% is below the ${CI_CORE_COVER_FLOOR}% floor" >&2
        return 1
    fi
}

# Every benchmark once, GOMAXPROCS pinned so ns/op numbers are comparable
# across runners of different widths and -count=1 so a warm test cache can
# never skip the pass; then the regression diff against the previous
# BENCH_<stamp>.json snapshot. A single -benchtime=1x pass is too noisy to
# block local work on, so the diff only warns here; the CI workflow exports
# CI_BENCHDIFF_FATAL=1 (and CI_BENCHTIME=3x to average the noise down) to
# make a >15 % ns/op regression fail the build.
stage_bench() {
    GOMAXPROCS=4 scripts/bench.sh . "${CI_BENCHTIME:-1x}"
    if [ "${CI_BENCHDIFF_FATAL:-0}" = "1" ]; then
        scripts/benchdiff.sh
    else
        scripts/benchdiff.sh || echo "benchdiff: regression reported (non-fatal locally; CI_BENCHDIFF_FATAL=1 enforces)"
    fi
}

summary=""
for stage in $CI_STAGES; do
    case "$stage" in
    fmt | lint | lintx | test | race | chaos | heal | adapt | scrub | overload | cover | bench) ;;
    *)
        echo "ci.sh: unknown stage \"$stage\" (stages: fmt lint lintx test race chaos heal adapt scrub overload cover bench)" >&2
        exit 2
        ;;
    esac
    echo "== $stage =="
    stage_start=$(date +%s)
    "stage_$stage"
    stage_secs=$(($(date +%s) - stage_start))
    summary="$summary$(printf '  %-6s %4ss' "$stage" "$stage_secs")
"
done

echo "== stage timings =="
printf '%s' "$summary"
echo "CI OK ($CI_STAGES)"
