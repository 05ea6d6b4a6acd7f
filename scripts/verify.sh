#!/usr/bin/env bash
# scripts/verify.sh — the checks every PR must pass. Superset of the
# tier-1 gate (build + test): adds go vet across the module and a race
# run of internal/sim, whose driver-token goroutine handoff is exactly
# the kind of code the race detector exists for.
set -euo pipefail
cd "$(dirname "$0")/.."

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
go test -count=1 -run 'TestAMAtMostOnceOutlivesLaterCalls|TestExactlyOnceUnderLossProperty|TestDedupProperty|FuzzDedup' ./internal/proto/am/ >/dev/null
echo "== go test -race sharded experiments stack (engine+fabric+collectives end to end)"
go test -race -count=1 -run 'TestSharded' ./internal/experiments/ >/dev/null
echo "== netsim fabric accounting regressions (drop-before-reserve, FIFO under fault churn)"
go test -count=1 -run 'TestPartitionFloodDoesNotDelayHealthyTraffic|TestLinkFaultFIFOUnderChurn|TestPartitionDropsAndAccounts' ./internal/netsim/ >/dev/null
echo "== observability golden determinism (byte-identical metrics across runs; Stats read-through: TestFuncMetricsReadThrough, TestMergedReadsFuncMetricsIntoStaticCopy, TestGaugesReadStatsLive; net.* derivation: TestShardedLossInvariant in the topology step)"
go test -count=1 -run 'TestMetricsGoldenDeterminism' ./cmd/nowsim/ >/dev/null
go test -count=1 -run 'TestEngineMetricsDeterministic' ./internal/sim/ >/dev/null
go test -count=1 -run 'TestFuncMetricsReadThrough|TestDuplicateNamePanics|TestNilRegistryIsInert|TestGaugeFuncReadsAtSnapshot|TestMergedReadsFuncMetricsIntoStaticCopy' ./internal/obs/ >/dev/null
go test -count=1 -run 'TestGaugesReadStatsLive' ./internal/coopcache/ ./internal/xfs/ >/dev/null
echo "== fault-plan golden determinism (same plan -> byte-identical exports)"
go test -count=1 -run 'TestFaultedRunGoldenDeterminism' ./cmd/nowsim/ >/dev/null
go test -count=1 -run 'TestInjectorDeterministicExport' ./internal/faults/ >/dev/null
echo "== collective golden determinism (32/128-rank runs + SC1 CLI export)"
go test -count=1 -run 'TestDeterminismGolden32|TestDeterminismGolden128' ./internal/proto/collective/ >/dev/null
go test -count=1 -run 'TestScaleStudyGoldenDeterminism' ./cmd/nowbench/ >/dev/null
echo "== xFS pipelined data path golden determinism (ST2 byte-identical)"
go test -count=1 -run 'TestSeqScanGoldenDeterminism' ./cmd/nowbench/ >/dev/null
echo "== availability goldens (AV1 + AV2 match testdata byte for byte, remediation on beats off)"
go test -count=1 -run 'TestRemediationGoldenDeterminism' ./cmd/nowbench/ >/dev/null
go test -count=1 -run 'TestFaultStudyGolden|TestRemediationStudyImproves' ./internal/experiments/ >/dev/null
echo "== topology study golden determinism (SC3 byte-identical, fabric conservation under loss)"
go test -count=1 -run 'TestTopologyStudyGoldenDeterminism' ./cmd/nowbench/ >/dev/null
go test -count=1 -run 'TestTopologyLatencyAndContention|TestShardedLossInvariant' ./internal/netsim/ >/dev/null
go test -count=1 -run 'TestInNetValuesAcrossTopologies|TestEpochIsolationUnderRetryChurn' ./internal/proto/collective/ >/dev/null
echo "== cross-shard golden determinism (nowsim -shards 1/2/4/8 byte-identical)"
go test -count=1 -run 'TestShardedRunGoldenDeterminism' ./cmd/nowsim/ >/dev/null
go test -count=1 -run 'TestShardedTrafficDeterministicAcrossWorkers' ./internal/experiments/ >/dev/null
go test -count=1 -run 'TestShardedDeterminismAcrossWorkers|TestShardedStopMidDrain' ./internal/sim/ >/dev/null
echo "== scenario gate (parse every .scn, run shipped stories, diff golden reports)"
go run ./cmd/nowsim check examples/scenarios/*.scn >/dev/null
for scn in examples/scenarios/*.scn; do
  golden="${scn%.scn}.report.golden"
  [ -f "$golden" ] || { echo "missing golden report for $scn" >&2; exit 1; }
  # nowsim run exits 2 on any failed/unknown assertion; -e fails the gate.
  go run ./cmd/nowsim run "$scn" | diff -u "$golden" - \
    || { echo "scenario report drifted from $golden" >&2; exit 1; }
done
go test -count=1 -run 'TestScenarioRunGoldenDeterminism|TestScenarioShardedWorkerInvariance|TestOperatorScenarioShardsInvariance' ./cmd/nowsim/ >/dev/null
go test -count=1 -run 'TestParsePrintIdentity|TestRunDeterminism|TestFederatedValidation|TestRunFederated' ./internal/scenario/ >/dev/null
echo "== go test -race ./internal/federation/... (WAN gateways + lease recalls + spill under churn)"
go test -race -count=1 ./internal/federation/...
echo "== wide-area golden determinism (WA1 byte-identical, crossover pinned to the closed form, WAN at-most-once)"
go test -count=1 -run 'TestWideAreaGoldenDeterminism' ./cmd/nowbench/ >/dev/null
go test -count=1 -run 'TestWideAreaCrossover|TestWideAreaDeterminism' ./internal/experiments/ >/dev/null
go test -count=1 -run 'TestFederatedDeterminismAcrossWorkers|TestWANAtMostOnceOutlivesLaterCalls|TestWANExactlyOnceUnderLossProperty' ./internal/federation/ >/dev/null
echo "== benchmark module (bench/ drives the simulator through the now facade only)"
(cd bench && go vet ./... && go test -count=1 ./... >/dev/null)
echo "verify: all checks passed"
