GO ?= go
STATICCHECK ?= staticcheck

.PHONY: build build-portable examples test test-allocs test-nommap test-nosendfile test-stress test-rearm test-republish bench benchmark gateway-soak fuzz-smoke fmt vet staticcheck ci

## build: compile every package and command
build:
	$(GO) build ./...

## build-portable: compile every package for arm64, where no keystream
## kernel exists, so the portable CTR path keeps compiling and vetting
## (cross-compiling needs no network)
build-portable:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/secure/

## examples: run every example program. quickstart, collaborative and
## medical are deterministic: their stdout must match
## examples/<name>/testdata/stdout.golden byte for byte. dissemination
## and gateway print timings, so only their exit status is checked
examples:
	@for e in quickstart collaborative medical; do \
		echo "$(GO) run ./examples/$$e"; \
		$(GO) run ./examples/$$e > .examples.out || exit 1; \
		diff -u examples/$$e/testdata/stdout.golden .examples.out || \
			{ echo "examples/$$e: stdout differs from its golden"; rm -f .examples.out; exit 1; }; \
	done; rm -f .examples.out
	$(GO) run ./examples/dissemination > /dev/null
	$(GO) run ./examples/gateway > /dev/null

## test: run the full test suite under the race detector
test:
	$(GO) test -race ./...

## test-allocs: the allocation gates, without the race detector — under
## it sync.Pool drops what is put back on purpose, so these tests skip
## their counts there, and every other step runs their packages with it
## (dsp's on its default sendfile path too): the batched decrypt, a
## re-armed card evaluation, the card path and a subscriber's reception
## across document sizes, the encoder across document sizes, a re-armed
## dictionary decode, a pooled cold read and its sendfile serve, an open
## in each of a thousand contexts across collections, a warmed gatewayd
## query end to end, a released result's storage, and a lookup in a
## server's table of names
test-allocs:
	$(GO) test -count=1 -run 'TestDecryptAllocsFlatAcrossRunLengths|TestOpenAllocsAcrossContexts' ./internal/secure/
	$(GO) test -count=1 -run 'TestRestartAllocs' ./internal/soe/
	$(GO) test -count=1 -run 'TestCardPathAllocsFlatAcrossDocumentSize|TestReleasedResultStorageReused' ./internal/proxy/
	$(GO) test -count=1 -run 'TestReceptionAllocsFlatAcrossStreamLength' ./internal/dissem/
	$(GO) test -count=1 -run 'TestEncodeAllocsFlatAcrossDocumentSize' ./internal/docenc/
	$(GO) test -count=1 -run 'TestDecodeAgainAllocatesNothing' ./internal/tagdict/
	$(GO) test -count=1 -run 'TestColdReadAllocs|TestSendfileServesColdRun' ./internal/dsp/
	$(GO) test -count=1 -run 'TestGatewayQueryAllocs' ./internal/gateway/
	$(GO) test -count=1 -run 'TestInternerKeepsNoInputBytes' ./internal/wire/

## test-nommap: exercise the portable (heap-copy) checkpoint read path
## that non-unix platforms take; with no mmap tier there are no file runs,
## so this is also the fully portable, writev-only serve path
test-nommap:
	$(GO) test -tags nommap ./internal/dsp/

## test-nosendfile: exercise the writev-only cold serve path over mapped
## checkpoint images that non-linux unix platforms take
test-nosendfile:
	$(GO) test -tags nosendfile ./internal/dsp/

## test-stress: the store tier's concurrency and fault tests repeated
## under the race detector — the sendfile cold serve (run detection,
## fault injection, byte identity), the durable store with crash
## injection, the mmap tier with pooled frames and stats snapshots, the
## segmented store hammer with background checkpoints and mid-run
## recovery, and the batch decrypt pipeline's shared contexts
test-stress:
	$(GO) test -run 'TestSendfile' -race -count=2 ./internal/dsp/
	$(GO) test -run 'TestFileStore|TestCacheCommit' -race -count=2 ./internal/dsp/
	$(GO) test -run 'TestFileStoreMmap|TestFileStorePinned|TestFileStoreUnpinned|TestFileStoreCorruptFooterHeals|TestFileStoreStatsNeverTorn|TestCacheSkipsMappedFills|TestClientBlockFrame|TestWireReadAllocs|TestColdReadAllocs' -race -count=2 ./internal/dsp/
	$(GO) test -run 'TestFileStoreSegmentedHammer|TestFileStoreCheckpointOffRequestPath' -race -count=2 ./internal/dsp/
	$(GO) test -run 'TestSharedDecryptContextRace|TestContextConcurrentUse|TestGatewayMatchesSerialTerminal|TestMadviseCounter' -race -count=2 ./internal/secure/ ./internal/fleet/ ./internal/dsp/

## test-rearm: the differential tests of reused card state — a re-armed
## session, a pooled terminal session and a standing subscriber against
## fresh ones, after other evaluations, after aborts at every block and
## across documents whose dictionaries differ; a standing subscriber
## whose rules or query changed between two versions against a fresh
## one holding the new ones; automata compiled into a
## machine that held another against fresh ones;
## the golden cost-model values; a standing session that delivers to its
## owner's sink against a fresh one (and a sink that fails under it); the
## prefetch pipeline at every readahead depth against the serial pull,
## its run lengths and its check on what a store answers — repeated
## under the race detector
test-rearm:
	$(GO) test -race -count=10 -run 'TestRestart|TestOutcomesMatchGolden|TestSessionReuseMatchesFreshSession|TestStandingSubscriberMatchesFresh|TestRebroadcastFollowsRightsChanges|TestDeltaBroadcast|TestDirectDelivery|TestUnboundSession|TestSinkErrorAbortsSession|TestReadahead|TestStoreRunLengthChecked|TestCompileIntoMatchesCompile' ./internal/soe/ ./internal/proxy/ ./internal/dissem/ ./internal/automaton/

## test-republish: the re-publication path — a long-lived publisher's
## retained diff base against a fresh publisher per commit, a foreign
## commit in between, a store that fails the commit before and after
## applying it, a rolled-back header, two re-publications of one document
## at once, retention past its byte bound; the one commit frame against
## the staged handshake and the in-process application on every store
## tier, readers of a commit parked in its fsync, a kill inside that
## fsync, racing commits against replay; a refused commit's frame vs its
## retry, and a lost race's frame vs the winner's: no shared keystream;
## the context header MAC against crypto/hmac, a kept encoding plan
## against a fresh one through edits that keep and change the shape, the
## kept plan copying from its last emission vs a fresh diff (after a
## refused or failed commit too),
## a diff into a buffer overlapping its base, the encoder's golden bytes
## and the store-side handshake tests — repeated under the race detector
test-republish:
	$(GO) test -race -count=5 -run 'TestRepublish|TestDiffEncode|TestPlanReuse|TestEncoderMatchesGolden|TestHeaderMAC' ./internal/docenc/ ./internal/proxy/ ./internal/dsp/ ./internal/secure/ .

## bench: one-iteration benchmark smoke run (perf code must keep compiling and running)
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

## benchmark: the repository benchmark declared in BENCHMARK.json — four
## workloads against the deployed stack, every reply checked; where
## latency and throughput figures come from (see benchmark/README.md)
benchmark:
	$(GO) run ./benchmark

## gateway-soak: hammer gatewayd over loopback TCP under the race
## detector — hundreds of subjects churning connect/query/disconnect,
## session-pool leak checks, drain-mid-query, both stats surfaces
gateway-soak:
	$(GO) test -race -count=2 -run 'TestGatewayd' ./internal/gateway/

## fuzz-smoke: short fuzz runs over the decoders of bytes that arrive
## from outside (stored blocks opened in place and into a buffer, sealed
## blobs, the container header,
## the document payload decoded block by block through the card's input
## window, the tag dictionary decoded into one that held another, dspd's
## one-frame commit and the log record recovery replays it from, the
## checkpoint image a store directory is reopened from, the sealed rule
## set's plaintext and the card's open of the sealed set, the XPath
## parser, the frame reader every network byte passes, dspd's request
## dispatch, the client's block-run reply and
## gatewayd's requests), the
## serializer's round trip, the encoder's kept plan against a fresh
## one, and the keystream kernel and portable loop against
## cipher.NewCTR; CI runs this on every push, longer runs stay manual
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalHeader -fuzztime=10s ./internal/docenc/
	$(GO) test -run=NONE -fuzz=FuzzDecryptBlock -fuzztime=10s ./internal/secure/
	$(GO) test -run=NONE -fuzz=FuzzDecryptBlob -fuzztime=10s ./internal/secure/
	$(GO) test -run=NONE -fuzz=FuzzKeystream -fuzztime=10s ./internal/secure/
	$(GO) test -run=NONE -fuzz=FuzzDecoderChunked -fuzztime=10s ./internal/soe/
	$(GO) test -run=NONE -fuzz=FuzzDictDecodeRearm -fuzztime=10s ./internal/tagdict/
	$(GO) test -run=NONE -fuzz=FuzzSerializeRoundTrip -fuzztime=10s ./internal/xmlstream/
	$(GO) test -run=NONE -fuzz=FuzzCommitFrame -fuzztime=10s ./internal/dsp/
	$(GO) test -run=NONE -fuzz=FuzzCommitRecord -fuzztime=10s ./internal/dsp/
	$(GO) test -run=NONE -fuzz=FuzzCheckpointImage -fuzztime=10s ./internal/dsp/
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalRuleSet -fuzztime=10s ./internal/accessrule/
	$(GO) test -run=NONE -fuzz=FuzzXPathParse -fuzztime=10s ./internal/xpath/
	$(GO) test -run=NONE -fuzz=FuzzReadFrames -fuzztime=10s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzServerDispatch -fuzztime=10s ./internal/dsp/
	$(GO) test -run=NONE -fuzz=FuzzParseBlockRun -fuzztime=10s ./internal/dsp/
	$(GO) test -run=NONE -fuzz=FuzzGatewayDispatch -fuzztime=10s ./internal/gateway/
	$(GO) test -run=NONE -fuzz=FuzzPutSealedRuleSet -fuzztime=10s ./internal/card/
	$(GO) test -run=NONE -fuzz=FuzzPlanReuse -fuzztime=10s ./internal/docenc/

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
ci: fmt vet staticcheck build build-portable examples test test-allocs test-nommap test-nosendfile test-stress test-republish test-rearm gateway-soak fuzz-smoke bench
