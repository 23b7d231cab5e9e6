GO ?= go
STATICCHECK ?= staticcheck

# Newest checked-in perf baseline (BENCH_<pr>.json, version-sorted) —
# what bench-compare gates against. See docs/BENCHMARKS.md.
BENCH_BASELINE ?= $(shell ls BENCH_*.json 2>/dev/null | sort -V | tail -1)
# CI runners differ wildly from the machines baselines are recorded on,
# so the compare threshold is generous: only a gated metric that gets
# >50% worse fails the build.
BENCH_THRESHOLD ?= 0.5

.PHONY: build test test-nommap test-nosendfile test-rearm test-republish bench benchmark bench-smoke bench-json bench-compare bench-chain gateway-soak fuzz-smoke fmt vet staticcheck ci

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite under the race detector
test:
	$(GO) test -race ./...

## test-nommap: exercise the portable (heap-copy) checkpoint read path —
## the fallback non-unix platforms and dspd -mmap=false take
test-nommap:
	$(GO) test -tags nommap ./internal/dsp/

## test-nosendfile: exercise the writev-only cold serve path — what
## non-linux platforms and dspd -sendfile=false take — plus the fully
## portable combination (no mmap tier, no sendfile)
test-nosendfile:
	$(GO) test -tags nosendfile ./internal/dsp/
	$(GO) test -tags nommap,nosendfile ./internal/dsp/

## test-rearm: the differential tests of reused card state — a re-armed
## session, a pooled terminal session and a standing subscriber against
## fresh ones, after other evaluations and after aborts at every block;
## the golden cost-model values; a session that delivers to its owner's
## sink against the record path (and a sink that fails under it); the
## prefetch pipeline at every readahead depth against the serial pull,
## its run lengths and its check on what a store answers — repeated
## under the race detector
test-rearm:
	$(GO) test -race -count=10 -run 'TestRestart|TestOutcomesMatchGolden|TestSessionReuseMatchesFreshSession|TestStandingSubscriberMatchesFresh|TestDirectDelivery|TestSinkErrorAbortsSession|TestReadahead|TestStoreRunLengthChecked' ./internal/soe/ ./internal/proxy/ ./internal/dissem/

## test-republish: the re-publication path — a long-lived publisher's
## retained diff base against a fresh publisher per commit, a foreign
## commit in between, a store that fails the commit before and after
## applying it, a rolled-back header, two re-publications of one document
## at once, retention past its byte bound; the one commit frame against
## the staged handshake and the in-process application on every store
## tier, readers of a commit parked in its fsync, a kill inside that
## fsync, racing commits against replay; the context header MAC against
## the package one, the encoder's golden bytes and the store-side
## handshake tests — repeated under the race detector
test-republish:
	$(GO) test -race -count=5 -run 'TestRepublish|TestDiffEncode|TestEncoderMatchesGolden|TestHeaderMAC' ./internal/docenc/ ./internal/proxy/ ./internal/dsp/ ./internal/secure/ .

## bench: one-iteration benchmark smoke run (perf code must keep compiling and running)
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

## benchmark: the repository benchmark declared in BENCHMARK.json — four
## workloads against the deployed stack, every reply checked; where
## latency and throughput figures come from (see benchmark/README.md)
benchmark:
	$(GO) run ./benchmark

## bench-smoke: run the system-path experiments end to end (E9 scaled
## DSP, E10 gateway, E11 delta re-publish, E12 durable WAL store,
## E13 segmented durable tier, E14 session-pooled gateway daemon)
bench-smoke:
	$(GO) run ./cmd/sdsbench E9 E10 E11 E12 E13 E14

## bench-json: run E9-E14 and write the machine-readable result file
## (bench-run.json, the sds-bench-result/v1 schema of docs/BENCHMARKS.md)
bench-json:
	$(GO) run ./cmd/sdsbench -json bench-run.json -label local E9 E10 E11 E12 E13 E14

## bench-compare: run E9-E14 and diff the result against the newest
## checked-in BENCH_*.json; fails on a gated-metric regression beyond
## BENCH_THRESHOLD
bench-compare: bench-json
	@if [ -z "$(BENCH_BASELINE)" ]; then \
		echo "no BENCH_*.json baseline checked in; skipping compare"; \
	else \
		$(GO) run ./cmd/sdsbench -compare -threshold $(BENCH_THRESHOLD) $(BENCH_BASELINE) bench-run.json; \
	fi

## bench-chain: verify the checked-in baselines gate against each other
## in sequence (BENCH_7 -> BENCH_8 and so on): each cut must pass the
## compare gate against its predecessor, so the trajectory file never
## hides a regression between two commits
bench-chain:
	@set -e; prev=""; \
	for f in $$(ls BENCH_*.json 2>/dev/null | sort -V); do \
		if [ -n "$$prev" ]; then \
			echo "gate: $$prev -> $$f"; \
			$(GO) run ./cmd/sdsbench -compare -threshold $(BENCH_THRESHOLD) $$prev $$f; \
		fi; \
		prev=$$f; \
	done; \
	if [ -z "$$prev" ]; then echo "no BENCH_*.json checked in"; fi

## gateway-soak: hammer gatewayd over loopback TCP under the race
## detector — hundreds of subjects churning connect/query/disconnect,
## session-pool leak checks, drain-mid-query, both stats surfaces
gateway-soak:
	$(GO) test -race -count=2 -run 'TestGatewayd' ./internal/gateway/

## fuzz-smoke: short fuzz runs over the decoders of bytes that arrive
## from outside (stored blocks and sealed blobs, the container header,
## the document payload decoded block by block through the card's input
## window, the card's record stream cut at arbitrary points, dspd's
## one-frame commit and the log record recovery replays it from) and the
## serializer's round trip; CI runs this on every push, longer runs stay
## manual
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalHeader -fuzztime=10s ./internal/docenc/
	$(GO) test -run=NONE -fuzz=FuzzDecryptBlock -fuzztime=10s ./internal/secure/
	$(GO) test -run=NONE -fuzz=FuzzDecryptBlob -fuzztime=10s ./internal/secure/
	$(GO) test -run=NONE -fuzz=FuzzDecoderChunked -fuzztime=10s ./internal/soe/
	$(GO) test -run=NONE -fuzz=FuzzDecodeRecords -fuzztime=10s ./internal/proxy/
	$(GO) test -run=NONE -fuzz=FuzzSerializeRoundTrip -fuzztime=10s ./internal/xmlstream/
	$(GO) test -run=NONE -fuzz=FuzzCommitFrame -fuzztime=10s ./internal/dsp/
	$(GO) test -run=NONE -fuzz=FuzzCommitRecord -fuzztime=10s ./internal/dsp/

## fmt: fail if any file needs gofmt
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet: static analysis
vet:
	$(GO) vet ./...

## staticcheck: deeper static analysis (skipped with a note when the
## tool is not installed; CI installs it)
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1, the version CI pins)"; \
	fi

## ci: exactly what .github/workflows/ci.yml runs
ci: fmt vet staticcheck build test test-nommap test-nosendfile test-rearm test-republish gateway-soak fuzz-smoke bench bench-compare bench-chain
