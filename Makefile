# Build/test entry points. `make check` is the full gate (gofmt + size
# ratchet + vet + build + race-enabled tests including the chaos suite);
# `make test-short` skips the chaos tests for a fast tier-1-style pass.

GO ?= go

.PHONY: check fmt size build vet test test-short test-race parity chaos churn-smoke disk-smoke load-json load-smoke obs-smoke digest-smoke ledger-smoke fuzz

check: fmt size vet build test-race

# Formatting gate: fails (and lists the offenders) if any tracked Go
# file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Size ratchet: non-test Go lines, the largest non-test file, the flag
# counts of proxyd and of its demo and origin subcommands (each against its
# own ceiling, so moving a flag behind a subcommand cannot hide growth),
# the eac_* metric families and the byte size of the five
# long documents may shrink freely but fail the
# gate when one grows past the ceiling written below. A change that needs
# more room raises the number here, in its own diff, where a reviewer sees
# it. Families are counted from METRICS.md's table rows, which
# TestMetricsCatalogue holds equal to what a live node's /metrics serves.
size:
	@lines=$$(find . -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
	set -- $$(find . -name '*.go' -not -name '*_test.go' | xargs wc -l | grep -v ' total$$' | sort -n | tail -n 1); \
	mkdir -p artifacts && $(GO) build -o artifacts/proxyd ./cmd/proxyd || exit 1; \
	flags=$$(artifacts/proxyd -h 2>&1 | grep -c '^  -'); \
	demoflags=$$(artifacts/proxyd demo -h 2>&1 | grep -c '^  -'); \
	originflags=$$(artifacts/proxyd origin -h 2>&1 | grep -c '^  -'); \
	families=$$(grep -c '^| `eac_' METRICS.md); \
	echo "non-test Go lines:     $$lines (ceiling 22645)"; \
	echo "largest non-test file: $$1 $$2 (ceiling 742)"; \
	echo "proxyd flags:          $$flags (ceiling 20)"; \
	echo "proxyd demo flags:     $$demoflags (ceiling 5)"; \
	echo "proxyd origin flags:   $$originflags (ceiling 1)"; \
	echo "eac_* families:        $$families (ceiling 40)"; \
	docs=0; for d in README.md:32667 DESIGN.md:84483 EXPERIMENTS.md:61587 CHANGES.md:35674 bench/README.md:51956; do \
		f=$${d%%:*}; max=$${d##*:}; bytes=$$(wc -c < $$f); \
		printf '%-22s %s (ceiling %s)\n' "$$f bytes:" $$bytes $$max; \
		[ $$bytes -le $$max ] || docs=1; \
	done; \
	[ $$lines -le 22645 ] && [ $$1 -le 742 ] && [ $$flags -le 20 ] && [ $$demoflags -le 5 ] && \
	[ $$originflags -le 1 ] && [ $$families -le 40 ] && [ $$docs -eq 0 ]

build:
	$(GO) build ./...

# vet also checks a 32-bit build: every package and test must compile with
# a 4-byte int, and the layout and routing pins, which derive their sizes
# from the word size and take the FNV modulus unsigned, must hold there.
VET386_LOG ?= artifacts/vet-386.log
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	@$(call named-tests,GOARCH=386 $(GO) test -run 'TestDocumentLayout|TestRecordLayout|TestRouteTable' ./internal/cache/ ./internal/trace/ ./internal/group/,$(VET386_LOG))

test:
	$(GO) test ./...

# Fast pass: -short skips the fault-injection chaos tests. The second
# line re-runs the trace generator's and the Zipf sampler's tests at
# GOMAXPROCS 1, 2 and 4: Generate merges a trace in one piece per core, and
# its output, TestGenerateGolden's digests included, must not depend on
# how many there are. The loop below it holds the experiment suite, which
# replays on one worker per core, to the same rule: the quick pass and a
# 3-seed delta table print the same bytes at GOMAXPROCS 1, 2 and 4 once the
# "(id in ...)" timing lines are dropped.
test-short:
	$(GO) test -short ./...
	$(GO) test -cpu 1,2,4 -run 'TestGenerate|TestMergePieces|TestZipf' ./internal/trace ./internal/dist
	@mkdir -p artifacts && $(GO) build -o artifacts/experiments ./cmd/experiments || exit 1; \
	for args in "-scale 0.005" "-seeds 3 -scale 0.005"; do \
		for procs in 1 2 4; do \
			GOMAXPROCS=$$procs artifacts/experiments $$args > artifacts/experiments.raw || exit 1; \
			grep -v '^(.* in .*)$$' artifacts/experiments.raw > artifacts/experiments-$$procs.txt; \
		done; \
		if ! cmp artifacts/experiments-1.txt artifacts/experiments-2.txt || \
			! cmp artifacts/experiments-1.txt artifacts/experiments-4.txt; then \
			echo "FAIL: experiments $$args prints different tables at different GOMAXPROCS"; exit 1; \
		fi; \
		echo "ok  experiments $$args: same output at GOMAXPROCS 1, 2 and 4"; \
	done

test-race:
	$(GO) test -race ./...

# named-tests runs the go test command line $(1) with its output kept in
# $(2) and printed, and fails when the run failed or when a package
# answered "no tests to run": go test exits 0 when a -run pattern matches
# nothing there, so a renamed test would turn its gate into a no-op.
named-tests = mkdir -p $(dir $(2)); { $(1); } > $(2) 2>&1; status=$$?; cat $(2); \
	if grep -q 'no tests to run' $(2); then echo 'FAIL: a -run pattern matched no test'; exit 1; fi; \
	exit $$status

# The sim↔live decision-equivalence gate: replays one generated trace
# through the simulator and through a live socket group and demands
# identical hit mix, placement decisions, and final resident sets.
PARITY_LOG ?= artifacts/parity.log
parity:
	@$(call named-tests,$(GO) test -race -v -run TestSimLiveParity ./internal/parity/,$(PARITY_LOG))

# Just the chaos suite: the live 4-node group under injected faults.
CHAOS_LOG ?= artifacts/chaos.log
chaos:
	@$(call named-tests,$(GO) test -race -v -run 'TestBreaker|TestDeadPeer|TestRemoteHitFetchFailure|TestPeerCrash|TestUDPLoss|TestStalledOrigin|TestChaosFlagged|TestChaosHash|TestChaosHerd|TestChaosChurn|TestDemoWithChaos' ./internal/netnode/ ./cmd/proxyd/,$(CHAOS_LOG))

# Membership churn gate: kill, ejection, runtime join, revival and
# readmission under continuous traffic, race-enabled. -short runs the
# same transitions over a smaller catalogue (the CI smoke); the verbose
# log carries the per-step migration accounting and is kept as the
# artifact. TestHomeStoreAfterEpochChange forces the interleaving where
# a join moves a URL while its home's origin fetch is in flight, and
# TestDrainHandoffToLoadedPeers drains into loaded peers on an injected
# clock, the only handoff that reaches the EA skip and a push refusal.
CHURN_LOG ?= artifacts/churn-smoke.log
churn-smoke:
	@$(call named-tests,$(GO) test -race -short -v -run 'TestChaosChurn|TestHomeStoreAfterEpochChange|TestDrainHandoffToLoadedPeers' ./internal/netnode/,$(CHURN_LOG))

# Disk-tier gate: the blob store's own suite (kill-at-every-offset index
# recovery, the segment crash matrix and space bound, checksum
# self-healing, index and segment compaction) plus the tier controller
# unit surface — the two-log crash matrix among it: a controller killed
# between every pair of writes its index and its journal make — and the
# journal's direct write under concurrent appenders, rotation and close
# (TestGroupCommit*, internal/persist/group_test.go), then the
# live end-to-end checks: a node overflows 10x its memory capacity onto
# disk, dies without a checkpoint, and the successor recovers every
# document with every blob checksum intact.
# Finally the budgets, without -race because they count allocations:
# TestTieredPassthroughGetAllocs fails if a warm Get through the nil-disk
# TieredStore allocates at all, as the bare store does not,
# TestTieredExpirationAgeAllocatesNothing if reading the placement signal
# does, TestTieredDiskHitCycleAllocatesNothing if a steady-state disk hit
# (verify, promote, demote one victim, remove the blob) does, and the tier
# round trip's own budgets hold blob's Admit / Verify / Remove / index
# append and the journal's Append to nothing, and Open+verify to its
# reader — bodies live in segment files that stay open, so no *os.File and
# no path string is made (internal/blob/stage_test.go,
# internal/persist/append_test.go).
DISK_LOG ?= artifacts/disk-smoke.log
disk-smoke:
	@$(call named-tests,$(GO) test -race -v ./internal/blob/ && \
	   $(GO) test -race -v -run 'TestTiered|TestDemote|TestRestoreDisk' ./internal/cache/ && \
	   $(GO) test -race -v -run 'TestJournalTier|TestMarshalEventRejects|TestSnapshotRejects|TestReplayTier|TestCheckpointPersistsDisk|TestGroupCommit' ./internal/persist/ && \
	   $(GO) test -race -v -run 'TestTier' ./internal/netnode/ && \
	   $(GO) test -v -run 'TestTieredPassthroughGetAllocs|TestTieredExpirationAgeAllocatesNothing|TestTieredDiskHitCycleAllocatesNothing' ./internal/cache/ && \
	   $(GO) test -v -run 'AllocBudget|TestIndexAppendAllocs' ./internal/blob/ && \
	   $(GO) test -v -run 'TestJournalAppendAllocs' ./internal/persist/,$(DISK_LOG))

# Open-loop load harness (cmd/loadgen) against a live 2-node group over
# real sockets. load-json ramps to saturation and writes the tail-latency
# artifact (p50/p99/p999, saturation RPS, shed/coalesce rates);
# load-smoke is the CI gate — a few seconds at low RPS must finish with
# zero sheds and zero errors, or the overload layer is misfiring at
# unsaturated load.
LOAD_JSON ?= artifacts/loadgen.json
load-json:
	$(GO) run ./cmd/loadgen -nodes 2 -rps 300 -duration 5s -saturate -out $(LOAD_JSON)

load-smoke:
	$(GO) run ./cmd/loadgen -nodes 2 -rps 50 -duration 3s -check -out $(LOAD_JSON)

# Group observability gate: live multi-node groups introspected by
# eacctl over their admin surfaces. Covers single-seed member discovery,
# cross-node trace stitching (one remote hit -> one trace ID on both the
# requester and the responder), and the replication-factor audit — under
# consistent-hash location the factor computed from /admin/resident must
# stay <= 1.0. The node-side half holds the one-recorder, one-surface
# rule: the /metrics families equal METRICS.md's tables, Robustness()
# agrees with the scrape field by field, a timed-out origin wait is
# counted, and a departed peer leaves the scrape. Also re-runs the
# loadgen -obs path so the slow-trace artifact plumbing stays honest.
# The log is kept in $(OBS_LOG).
OBS_LOG ?= artifacts/obs-smoke.log
obs-smoke:
	@$(call named-tests,$(GO) test -race -v -run 'TestEacctlAgainstLiveGroup|TestHashGroupReplicationBound' ./cmd/eacctl/ && \
	   $(GO) test -race -v -run 'TestCrossPeerTracePropagation|TestMalformedTraceContextNeverFatal|TestMetricsCatalogue|TestRobustnessIsTheScrape|TestOriginWaitTimeoutIsCounted|TestRemovedPeerLeavesTheScrape' ./internal/netnode/ && \
	   $(GO) test -race -v -run 'TestMetricsGolden' ./internal/obs/ && \
	   $(GO) test -race -v -run 'TestLoadgenObsRecordsSlowTraces' ./cmd/loadgen/,$(OBS_LOG))

# Digest-location gate: a live 3-node -locate=digest group under
# traffic, plus the delta-sync unit surface. After the first-contact
# full transfers, every background refresh must ride the change log as
# a delta — the eac_digest_* counters eacctl sums from every member's
# /metrics (replica state comes from /admin/digests) prove deltas
# outnumber fulls and the rebuild escape hatch never fired — and the
# sync wire cost stays within budget (TestDeltaSyncWireBudget: delta bytes
# < 10% of the full transfers they replace, no refresh outside the change
# log, no counter-saturation rebuild).
DIGEST_LOG ?= artifacts/digest-smoke.log
digest-smoke:
	@$(call named-tests,$(GO) test -race -v -run 'TestDigestGroupDeltaSteadyState' ./cmd/eacctl/ && \
	   $(GO) test -race -v -run 'TestDigest|TestIncremental|TestDelta' ./internal/netnode/ ./internal/digest/,$(DIGEST_LOG))

# Ledger gate: four seconds each of the paper's scenario (coop_mix: 4 live
# nodes, ICP + EA), of the trace replay (sim_bu: the simulator at five
# sizes under EA and ad-hoc) and of the tier round trip (disk_spill: one
# node promoting from and demoting to its blob tier, journal on) through
# the benchmark ledger (bench/, BENCHMARK.json). Fails when a run exits
# non-zero or its last line, the result line, does not say "correct": true
# — a wrong size or outcome on any request, or a validity check such as
# netnode.tcp_opens_per_req > 0.3, sim.ea_minus_adhoc_hit_rate_min >= 0 or
# blob.checksum_failures = 0. Each table and result line is kept as an
# artifact; the numbers of so short a run are for reading, not for
# comparing.
LEDGER_LOG ?= artifacts/ledger-smoke.log
LEDGER_SIM_LOG ?= artifacts/ledger-smoke-sim.log
LEDGER_DISK_LOG ?= artifacts/ledger-smoke-disk.log
ledger-smoke:
	@mkdir -p $(dir $(LEDGER_LOG)) $(dir $(LEDGER_SIM_LOG)) $(dir $(LEDGER_DISK_LOG))
	@status=0; \
	for run in coop_mix:$(LEDGER_LOG) sim_bu:$(LEDGER_SIM_LOG) disk_spill:$(LEDGER_DISK_LOG); do \
		log=$${run#*:}; \
		$(GO) run ./bench -workload $${run%%:*} -seconds 4 -trace 0 > $$log 2>&1 || status=1; \
		cat $$log; \
		tail -n 1 $$log | grep -q '"correct": *true' || status=1; \
	done; exit $$status

# Fuzz the decoders that face untrusted bytes: journal/snapshot/blob-index
# recovery and the wire parsers. Short per-target budget by default; raise with
# e.g. `make fuzz FUZZTIME=2m` for a longer soak.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -fuzz FuzzReadRequest -fuzztime $(FUZZTIME) ./internal/hproto/
	$(GO) test -fuzz FuzzReadResponse -fuzztime $(FUZZTIME) ./internal/hproto/
	$(GO) test -fuzz FuzzDecodeSync -fuzztime $(FUZZTIME) ./internal/digest/
	$(GO) test -fuzz FuzzReplayIndex -fuzztime $(FUZZTIME) ./internal/blob/
