GO ?= go

.PHONY: all build test race vet check bench BENCH_dedup.json clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the CI gate: static analysis plus the full suite under the
# race detector (the fault-tolerance paths are concurrency-heavy).
check:
	./scripts/check.sh

# bench regenerates the committed baselines: the send-path shapes
# (probes/sec, ns/probe, allocs/probe with speedups vs per-probe), the
# flight-recorder hot path (RecordAt must stay <= 50 ns / 0 allocs;
# the Stamp variant prices the optional time.Now), the receive path and
# the dedup window (fresh insert, repeat, and what building one costs).
bench: BENCH_dedup.json
	$(GO) test -run XXX -bench 'BenchmarkSendPath' -benchtime=2s ./internal/core \
		| $(GO) run ./scripts/benchjson -baseline BenchmarkSendPathPerProbe \
		> BENCH_sendpath.json
	@cat BENCH_sendpath.json
	$(GO) test -run XXX -bench 'BenchmarkTrace' -benchmem -benchtime=2s ./internal/trace \
		| $(GO) run ./scripts/benchjson \
		> BENCH_trace.json
	@cat BENCH_trace.json
	$(GO) test -run XXX -bench 'BenchmarkRecvPath' -benchmem -benchtime=2s ./internal/core \
		| $(GO) run ./scripts/benchjson -baseline 'BenchmarkRecvPath/workers=1' \
		> BENCH_recvpath.json
	@cat BENCH_recvpath.json

BENCH_dedup.json:
	$(GO) test -run XXX -bench 'BenchmarkWindowSeen|BenchmarkNewWindow' -benchmem -benchtime=2s ./internal/dedup \
		| $(GO) run ./scripts/benchjson \
		> BENCH_dedup.json
	@cat BENCH_dedup.json

clean:
	$(GO) clean ./...
