#!/usr/bin/env bash
# scripts/verify.sh — the checks every PR must pass. Superset of the
# tier-1 gate (build + test): adds go vet across the module and a race
# run of internal/sim, whose driver-token goroutine handoff is exactly
# the kind of code the race detector exists for.
set -euo pipefail
cd "$(dirname "$0")/.."

# gate [go test flags] PATTERN PKG... runs the tests PATTERN names and
# fails unless every |-separated alternative of PATTERN matched at least
# one test that ran and passed (a subtest pattern, one with a /, must
# match at least one passing subtest). `go test -run X` exits 0 when X
# matches nothing, so without this check a renamed test would silently
# turn its step into a no-op.
gate() {
  local flags=()
  while [[ $1 == -* ]]; do flags+=("$1"); shift; done
  local pattern=$1; shift
  local out alt
  if ! out=$(go test -count=1 -v "${flags[@]}" -run "$pattern" "$@" 2>&1); then
    echo "$out" | tail -n 60 >&2
    exit 1
  fi
  local passed
  passed=$(sed -n 's/^ *--- PASS: \([^ ]*\) .*/\1/p' <<<"$out")
  local alts=("$pattern")
  [[ $pattern == */* ]] || IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    if ! grep -qE -- "$alt" <<<"$passed"; then
      echo "verify: -run '$alt' matched no passing test in $*" >&2
      exit 1
    fi
  done
}

echo "== public API surface (examples/ and cmd/ import rules)"
scripts/apicheck.sh
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test ./..."
go test ./...
echo "== go test -race ./internal/sim/... (incl. sharded engine paths)"
go test -race -count=1 ./internal/sim/...
echo "== go test -race ./internal/faults/..."
go test -race -count=1 ./internal/faults/...
echo "== go test -race ./internal/controlplane/... (serve drive loop + HTTP round trip)"
go test -race -count=1 ./internal/controlplane/...
echo "== go test -race ./internal/stack/... (one stack builder: shared fault pipeline, net.* owner)"
go test -race -count=1 ./internal/stack/...
echo "== go test -race ./internal/netsim/... ./internal/proto/... (incl. cross-shard handoff)"
go test -race -count=1 ./internal/netsim/... ./internal/proto/...
echo "== at-most-once ledger (AM watermark window, dedup property + fuzz seed corpus)"
gate 'TestAMAtMostOnceOutlivesLaterCalls|TestExactlyOnceUnderLossProperty|TestDedupProperty|FuzzDedup' ./internal/proto/am/
echo "== go test -race sharded experiments stack (engine+fabric+collectives end to end)"
gate -race 'TestSharded' ./internal/experiments/
echo "== netsim fabric accounting regressions (drop-before-reserve, FIFO under fault churn)"
gate 'TestPartitionFloodDoesNotDelayHealthyTraffic|TestLinkFaultFIFOUnderChurn|TestPartitionDropsAndAccounts' ./internal/netsim/
echo "== observability golden determinism (byte-identical metrics across runs; Stats read-through: TestFuncMetricsReadThrough, TestMergedReadsFuncMetricsIntoStaticCopy, TestGaugesReadStatsLive, cp.cordoned census: TestCordonedGaugeIsCensus; net.* derivation: TestShardedLossInvariant in the topology step)"
gate 'TestMetricsGoldenDeterminism' ./cmd/nowsim/
gate 'TestEngineMetricsDeterministic' ./internal/sim/
gate 'TestFuncMetricsReadThrough|TestDuplicateNamePanics|TestNilRegistryIsInert|TestGaugeFuncReadsAtSnapshot|TestMergedReadsFuncMetricsIntoStaticCopy' ./internal/obs/
gate 'TestGaugesReadStatsLive' ./internal/coopcache/
gate 'TestGaugesReadStatsLive' ./internal/xfs/
gate 'TestCordonedGaugeIsCensus' ./internal/controlplane/
echo "== shared read buffers and allocation bounds (Read returns the caller's copy, stored chunks match the model and parity host side, zero-alloc waits and LRU replacement, one read miss under its bound)"
gate 'TestReadResultIsCallersCopy|TestReadMissAllocBound' ./internal/xfs/
gate 'TestRandomOpsMatchReferenceModel' ./internal/swraid/
gate 'TestWaitsDoNotAllocate' ./internal/sim/
gate 'TestPutOnFullCacheDoesNotAllocate' ./internal/lru/
echo "== fault-plan golden determinism (same plan -> byte-identical exports)"
gate 'TestFaultedRunGoldenDeterminism' ./cmd/nowsim/
gate 'TestInjectorDeterministicExport' ./internal/faults/
echo "== study table goldens (every -quick report and metrics export pinned; the CLI writes the same bytes)"
gate 'TestStudyTable' ./internal/experiments/
gate 'TestStudyGoldens/(T[1-4]|F[1-4]|E[0-9]+|SC2|A[1-4])$' ./internal/experiments/
gate 'TestRunCLIMatchesGolden|TestRunAblationSelection' ./cmd/nowbench/
echo "== collective golden determinism (32/128-rank runs + SC1 golden, rerun and metric names)"
gate 'TestDeterminismGolden32|TestDeterminismGolden128' ./internal/proto/collective/
gate 'TestStudyGoldens/SC1$' ./internal/experiments/
echo "== xFS pipelined data path golden determinism (ST2 byte-identical)"
gate 'TestStudyGoldens/ST2$' ./internal/experiments/
echo "== availability goldens (AV1 + AV2 match testdata byte for byte, AV2 reruns identically, remediation on beats off)"
gate 'TestStudyGoldens/AV[12]$' ./internal/experiments/
gate 'TestRemediationStudyImproves' ./internal/experiments/
echo "== topology study golden determinism (SC3 byte-identical, fabric conservation under loss)"
gate 'TestStudyGoldens/SC3$' ./internal/experiments/
gate 'TestTopologyLatencyAndContention|TestShardedLossInvariant' ./internal/netsim/
gate 'TestInNetValuesAcrossTopologies|TestEpochIsolationUnderRetryChurn' ./internal/proto/collective/
echo "== cross-shard golden determinism (nowsim -shards 1/2/4/8 byte-identical)"
gate 'TestShardedRunGoldenDeterminism' ./cmd/nowsim/
gate 'TestShardedTrafficDeterministicAcrossWorkers' ./internal/experiments/
gate 'TestShardedDeterminismAcrossWorkers|TestShardedStopMidDrain' ./internal/sim/
echo "== scenario gate (parse every .scn, run shipped stories against their golden reports)"
go run ./cmd/nowsim check examples/scenarios/*.scn >/dev/null
gate 'TestShippedScenarioGoldens|TestScenarioRunGoldenDeterminism|TestScenarioShardedWorkerInvariance|TestOperatorScenarioShardsInvariance' ./cmd/nowsim/
gate 'TestParsePrintIdentity|TestRunDeterminism|TestFederatedValidation|TestRunFederated' ./internal/scenario/
echo "== go test -race ./internal/federation/... (WAN gateways + lease recalls + spill under churn)"
go test -race -count=1 ./internal/federation/...
echo "== wide-area golden determinism (WA1 byte-identical, crossover pinned to the closed form, WAN at-most-once)"
gate 'TestStudyGoldens/WA1$' ./internal/experiments/
gate 'TestWideAreaCrossover|TestWideAreaDeterminism' ./internal/experiments/
gate 'TestFederatedDeterminismAcrossWorkers|TestWANAtMostOnceOutlivesLaterCalls|TestWANExactlyOnceUnderLossProperty' ./internal/federation/
echo "== benchmark module (bench/ drives the simulator through the now facade only)"
(cd bench && go vet ./... && go test -count=1 ./... >/dev/null)
echo "verify: all checks passed"
