#!/bin/sh
# CI gate: vet + full test suite under the race detector.
# Usage: ./scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt check"
unformatted=$(gofmt -l cmd internal zmap examples)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (CI runs the pinned version)"
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> checkpoint round-trip (interrupt, resume, exactly-once)"
go test -race -count=1 -run 'TestCLISigintCheckpointResume|TestCheckpointResumeExactlyOnce' \
    ./cmd/zmapgo ./internal/core
go test -race -count=1 -run 'TestCLICheckpointResumeAfterCap|TestCLIFatalTransportSavesResumableState' \
    ./cmd/zmapgo

echo "==> one scan config: fleet fingerprints computed by the engine, Options round-trips as JSON"
go test -race -count=1 \
    -run 'TestFleetFingerprintsMatchCompile|TestOptionsJSONRoundTrip|TestShardHandoffFingerprintGate|TestLeaseGateRejectsForeignLease' \
    ./zmap ./internal/fleet

echo "==> batched send loop vs faulty transport (batch-size sweep)"
go test -race -count=1 -run 'TestScanBatchedFaultyTransport' ./internal/core
go test -race -count=1 -run 'TestFaulty|TestRecvFault' ./internal/netsim
go test -race -count=1 -run 'TestV6' ./internal/v6scan

echo "==> sharded receive parity: byte-equal output across worker counts, per-shard dedup resume"
go test -race -count=1 \
    -run 'TestShardedRecvEquivalence|TestShardedRecvResumeExactlyOnce' ./internal/core
go test -count=1 \
    -run 'TestShardedRecvZeroAllocs|TestWindowZeroAllocs|TestComputeZeroAlloc|TestHasherZeroAllocs|TestCSVWriterZeroAlloc' \
    ./internal/core ./internal/dedup ./internal/validate ./internal/output

echo "==> scan health: congestion knee + dark-subnet quarantine scenarios"
go test -race -count=1 \
    -run 'TestAdaptiveRateRecoversThroughCongestionKnee|TestDarkSubnetQuarantined|TestQuarantineSurvivesResume' \
    ./zmap

echo "==> kill -9 mid-scan: checkpointed result-loss bound"
go test -race -count=1 -run 'TestCLIKillResultLossBound' ./cmd/zmapgo

echo "==> adversarial network weather: bursty loss, blackout parole, unreachable storms"
go test -race -count=1 \
    -run 'TestCollapsePersistenceBeatsBurstyLoss|TestJitteredTicksDoNotFakeCollapse|TestUnreachStormClampedToHoldPeriod|TestParole' \
    ./internal/health
go test -race -count=1 -run 'TestScenarioPlaybackDeterministic|TestScenarioTimeline' ./internal/netsim
go test -race -count=1 \
    -run 'TestBurstyLossDoesNotCollapseAdaptiveRate|TestBlackoutQuarantineParoleRelease|TestParoleSurvivesKillAndResume|TestUnreachStormClampedEndToEnd' \
    ./zmap

echo "==> flight recorder: SIGUSR1 dump, scenario attribution, overhead budget"
go test -race -count=1 \
    -run 'TestCLISigusr1DumpsTraceMidScan' ./cmd/zmapgo
go test -race -count=1 \
    -run 'TestZAnalyzeTraceAttributesScenarioRun' ./cmd/zanalyze
go test -count=1 \
    -run 'TestTracingOverheadWithinTwoPercent' ./zmap

echo "==> fleet chaos over loopback HTTP: SIGKILL/SIGSTOP each of 3 workers mid-scan, exactly-once merge"
go test -race -count=1 \
    -run 'TestFleetChaosExactlyOnce|TestFleetSlowWorkerNotReclaimed|TestFleetRerunAdoptsFinishedShards' \
    ./zmap
go test -race -count=1 -run 'TestNilPlaneRejected|TestSetAliveMovesBudgetThroughPlane' ./internal/fleet

echo "==> fleet-netchaos: workers through a partition-and-heal gauntlet, one worker runtime, validated RPCs"
go test -race -count=1 \
    -run 'TestFleetNetPartitionExactlyOnce|TestFleetWorkerSelfFencesPastTTL|TestFleetNetRemoteWorkersJoin|TestFleetRerunAdoptsLostDoneMark|TestFleetWorkerFencedAtStart|TestFleetWorkerRefusesForeignCheckpoint|TestFleetWorkerCompletesShard|TestFleetWorkerAppliesRateMidScan|TestRunFleetPlaneRequiresToken' \
    ./zmap
go test -race -count=1 \
    -run 'TestServerResultIdempotentAppend|TestServerFencesStaleEpoch|TestServerRejectsInvalidTarget|TestServerRenewCarriesRate|TestServerCommitBestEffortDoneMark|TestServerCommitSkipsForeignEpochDoneMark|TestClientRetriesServerFailure|TestDecideDeterministic|TestTimelineParseCanonical' \
    ./internal/fleetnet

echo "==> trace-dump smoke: scan with --trace-file, analyze with zanalyze trace"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/zmapgo -r 10.0.0.0/22 -p 80 --seed 5 --sim-lossless \
    --sim-time-scale 0 --cooldown-time 50ms --trace-sample-every 4 \
    --trace-file "$tracedir/trace.jsonl" -o /dev/null
go run ./cmd/zanalyze trace -strict "$tracedir/trace.jsonl" > "$tracedir/report.txt"
grep -q "stage latencies" "$tracedir/report.txt" \
    || { echo "zanalyze trace produced no latency report" >&2; exit 1; }

echo "OK"
