# latlab — reproduction of "Using Latency to Evaluate Interactive System
# Performance" (OSDI '96). Standard targets:

GO ?= go

# Hot-path benchmarks gated against committed BENCH_<date>.json
# baselines. Runs fold BENCH_COUNT repeats per benchmark so benchgate
# records a variance; a regression must exceed the fractional floor
# AND be statistically significant at 95% to fail. The ns/op floor is
# wide by default because shared hosts drift through minutes-scale
# load regimes ±25% — tighten it (BENCH_NS_TOL=0.10) on quiet
# dedicated hardware. allocs/op is deterministic, so its floor stays
# tight; it is the reliable regression tripwire everywhere.
BENCH_GATE_PAT  = ^(BenchmarkSimulatorThroughput|BenchmarkBatchThroughput|BenchmarkExtraction|BenchmarkSchedulePop|BenchmarkLRUTouch|BenchmarkWriteIdleCSV|BenchmarkSketchAdd)$$
BENCH_GATE_PKGS = . ./internal/eventq ./internal/mem ./internal/trace ./internal/stats
BENCH_NS_TOL    ?= 0.25
BENCH_ALLOC_TOL ?= 0.10
BENCH_COUNT     ?= 5
BENCH_RETRIES   ?= 3

# Coverage floor (percent) for the hardware-profile layer: the packages
# a machine.Profile threads through, plus the perception layer that
# interprets what they measure, must stay well exercised.
COVER_PKGS   = ./internal/machine ./internal/cpu ./internal/mem ./internal/disk ./internal/perception
COVER_FLOOR ?= 85

.PHONY: all build vet test race verify bench bench-baseline bench-check cover doclint fuzz-smoke campaign-check campaign-resume-check campaign-demo batch-check repro quick examples clean

all: build verify

build:
	$(GO) build ./...

# perfbench is a module of its own, so the root `./...` neither builds
# nor vets it; vetting it here catches an internal API change that
# breaks the benchmark before the benchmark run does.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test: verify

race:
	$(GO) test -race ./...

# The CI gate: vet (root module and perfbench) plus the full suite
# under the race detector (the runner is concurrent, so a plain
# `go test` can miss real bugs), then the benchmark regression gate
# and a short fuzz of the parsers. The
# race run already covers every golden replay (the scenario corpus,
# the ext-modern chapter, the batched-engine corpus and the in-batch
# session equivalence), so the sub-gates below only add what `go test`
# cannot: the lint, the coverage floor, benchmarks, fuzzing, and the
# campaign CLI byte-compared end to end.
# Set LATLAB_SKIP_BENCH=1 to skip the benchmark gate (e.g. on loaded or
# incomparable hardware), LATLAB_SKIP_COVER=1 to skip the coverage
# floor, LATLAB_SKIP_FUZZ=1 to skip the fuzz smoke,
# LATLAB_SKIP_DOCLINT=1 to skip the documentation lint,
# LATLAB_SKIP_CAMPAIGN=1 to skip the campaign-ledger replay,
# LATLAB_SKIP_RESUME=1 to skip the interrupt/resume reconvergence
# check, and LATLAB_SKIP_BATCH=1 to skip the batched-engine
# cross-check.
verify: vet race
	@if [ -z "$$LATLAB_SKIP_DOCLINT" ]; then \
		$(MAKE) --no-print-directory doclint; \
	else \
		echo "doclint skipped (LATLAB_SKIP_DOCLINT set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_COVER" ]; then \
		$(MAKE) --no-print-directory cover; \
	else \
		echo "cover skipped (LATLAB_SKIP_COVER set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_BENCH" ]; then \
		$(MAKE) --no-print-directory bench-check; \
	else \
		echo "bench-check skipped (LATLAB_SKIP_BENCH set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_FUZZ" ]; then \
		$(MAKE) --no-print-directory fuzz-smoke; \
	else \
		echo "fuzz-smoke skipped (LATLAB_SKIP_FUZZ set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_CAMPAIGN" ]; then \
		$(MAKE) --no-print-directory campaign-check; \
	else \
		echo "campaign-check skipped (LATLAB_SKIP_CAMPAIGN set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_RESUME" ]; then \
		$(MAKE) --no-print-directory campaign-resume-check; \
	else \
		echo "campaign-resume-check skipped (LATLAB_SKIP_RESUME set)"; \
	fi
	@if [ -z "$$LATLAB_SKIP_BATCH" ]; then \
		$(MAKE) --no-print-directory batch-check; \
	else \
		echo "batch-check skipped (LATLAB_SKIP_BATCH set)"; \
	fi

# Documentation gate: every internal package needs a package comment and
# docs on its exported symbols, every markdown link must resolve, and no
# exported internal function or method may be referenced only by tests.
doclint:
	$(GO) run ./cmd/doclint

# Enforce the statement-coverage floor on the hardware-profile packages.
# Fails if any package dips below COVER_FLOOR percent or if a package
# stops being counted (e.g. its tests were deleted).
cover:
	@out=$$($(GO) test -cover $(COVER_PKGS)) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk -v floor=$(COVER_FLOOR) ' \
		/coverage:/ { n++; pct = $$5; sub(/%/, "", pct); \
			if (pct + 0 < floor) { printf "cover: %s below floor %d%%\n", $$2, floor; bad = 1 } } \
		END { if (n < 5) { printf "cover: expected 5 covered packages, saw %d\n", n; exit 1 }; exit bad }'

# 10 seconds of coverage-guided fuzzing per fuzzer: the idle and
# attribution CSV parsers, the JSONL ledger and quarantine parsers, the
# scenario DSL, the differential event-queue check (the 4-ary heap vs
# a linear-scan model on random schedule/cancel programs), and the
# differential LRU check (the on-demand LRU vs the capacity-sized one
# it replaced, on random touch/flush/evict programs).
# `go test` only accepts one -fuzz pattern at a time, so each fuzzer
# gets its own run.
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseIdleCSV$$' -fuzztime $(FUZZ_TIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParseAttribCSV$$' -fuzztime $(FUZZ_TIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioParse$$' -fuzztime $(FUZZ_TIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzParseLedger$$' -fuzztime $(FUZZ_TIME) ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuarantine$$' -fuzztime $(FUZZ_TIME) ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzQueueEquivalence$$' -fuzztime $(FUZZ_TIME) ./internal/eventq
	$(GO) test -run '^$$' -fuzz '^FuzzLRUEquivalence$$' -fuzztime $(FUZZ_TIME) ./internal/mem

# Re-run the committed demo campaign (10080 quick sessions) at a
# non-default worker count and require the ledger and the analyze
# report to reproduce byte for byte — the end-to-end determinism gate
# for the sharded engine, the sketches, and the analyzer.
CAMPAIGN_DIR  = testdata/campaigns
CAMPAIGN_JOBS ?= 3
campaign-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/campaign run -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $$tmp/demo-ledger.jsonl -quick -jobs $(CAMPAIGN_JOBS) && \
	cmp $(CAMPAIGN_DIR)/demo-ledger.jsonl $$tmp/demo-ledger.jsonl && \
	$(GO) run ./cmd/campaign analyze -ledger $$tmp/demo-ledger.jsonl \
		-out $$tmp/demo-analyze.txt && \
	cmp $(CAMPAIGN_DIR)/demo-analyze.txt $$tmp/demo-analyze.txt && \
	echo "campaign-check: demo ledger and analyze reproduce byte-for-byte (-jobs $(CAMPAIGN_JOBS))"

# Crash-safety gate: interrupt the demo campaign mid-run with SIGINT,
# prove the drained ledger is a clean prefix (repair is a no-op), then
# resume at a different worker count and require the final ledger to
# match the committed one byte for byte. Exit 3 = interrupted cleanly;
# exit 0 means the run won the race and finished, which is also fine.
campaign-resume-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/campaign ./cmd/campaign && \
	( LATLAB_CAMPAIGN_INJECT=sleep=40ms $$tmp/campaign run -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $$tmp/demo-ledger.jsonl -quick -jobs 2 & \
	  pid=$$!; sleep 1; kill -INT $$pid 2>/dev/null; wait $$pid; code=$$?; \
	  [ $$code -eq 0 ] || [ $$code -eq 3 ] || { echo "campaign-resume-check: interrupted run exited $$code, want 0 or 3"; exit 1; } ) && \
	$$tmp/campaign repair -ledger $$tmp/demo-ledger.jsonl && \
	$$tmp/campaign resume -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $$tmp/demo-ledger.jsonl -quick -jobs $(CAMPAIGN_JOBS) && \
	cmp $(CAMPAIGN_DIR)/demo-ledger.jsonl $$tmp/demo-ledger.jsonl && \
	echo "campaign-resume-check: interrupted + resumed ledger matches the committed one byte-for-byte"

# Cross-check the engines and batch widths through the campaign CLI:
# the demo campaign on the reference engine one machine at a time and
# on the batched engine at a non-default batch width, both
# byte-compared against the committed ledger. campaign-check covers the
# default batched/-batch 8 configuration, so together the engine/batch
# matrix is pinned end to end. (The corpus replayed under the batched
# engine and the in-batch session equivalence are ordinary tests that
# the race run covers.)
batch-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/campaign run -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $$tmp/ref-ledger.jsonl -quick -jobs $(CAMPAIGN_JOBS) -engine reference -batch 1 && \
	cmp $(CAMPAIGN_DIR)/demo-ledger.jsonl $$tmp/ref-ledger.jsonl && \
	$(GO) run ./cmd/campaign run -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $$tmp/b64-ledger.jsonl -quick -jobs $(CAMPAIGN_JOBS) -engine batched -batch 64 && \
	cmp $(CAMPAIGN_DIR)/demo-ledger.jsonl $$tmp/b64-ledger.jsonl && \
	echo "batch-check: reference engine and -batch 64 reproduce the committed ledger byte-for-byte"

# Regenerate the committed demo campaign ledger and report after an
# intentional behaviour change. Commit both files.
campaign-demo:
	rm -f $(CAMPAIGN_DIR)/demo-ledger.jsonl
	$(GO) run ./cmd/campaign run -spec $(CAMPAIGN_DIR)/demo.json \
		-ledger $(CAMPAIGN_DIR)/demo-ledger.jsonl -quick -jobs $(CAMPAIGN_JOBS)
	$(GO) run ./cmd/campaign analyze -ledger $(CAMPAIGN_DIR)/demo-ledger.jsonl \
		-out $(CAMPAIGN_DIR)/demo-analyze.txt

# One benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Record today's hot-path numbers as the new baseline. Commit the file.
bench-baseline:
	$(GO) test -bench '$(BENCH_GATE_PAT)' -benchmem -count=$(BENCH_COUNT) -run '^$$' $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/benchgate -record BENCH_$$(date +%Y-%m-%d).json

# Fail if the hot paths regressed vs the newest committed baseline.
# Pass BENCH_NS_TOL/BENCH_ALLOC_TOL to loosen the single-sample gates,
# or add `-skip-ns -allow-cpu-mismatch` via BENCH_CHECK_FLAGS when
# comparing across machines (benchgate refuses a cross-cpu ns/op
# comparison outright). The gate retries up to BENCH_RETRIES attempts:
# a genuine regression is code-driven and fails every attempt, while a
# transient load spike on a shared host fails attempts independently,
# so bounded retries filter ambient noise without loosening the
# statistical gate itself.
bench-check:
	@i=1; while :; do \
		if $(GO) test -bench '$(BENCH_GATE_PAT)' -benchmem -count=$(BENCH_COUNT) -run '^$$' $(BENCH_GATE_PKGS) \
			| $(GO) run ./cmd/benchgate -check -ns-tol $(BENCH_NS_TOL) -alloc-tol $(BENCH_ALLOC_TOL) $(BENCH_CHECK_FLAGS); then \
			break; \
		fi; \
		if [ $$i -ge $(BENCH_RETRIES) ]; then \
			echo "bench-check: regression persisted across $(BENCH_RETRIES) attempts"; exit 1; \
		fi; \
		echo "bench-check: attempt $$i/$(BENCH_RETRIES) regressed; retrying in case of host noise"; \
		i=$$((i+1)); \
	done

# Regenerate every table and figure at paper-sized workloads.
repro:
	$(GO) run ./cmd/latbench

# Fast smoke of the full pipeline.
quick:
	$(GO) run ./cmd/latbench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/notepad
	$(GO) run ./examples/powerpoint
	$(GO) run ./examples/wordstudy
	$(GO) run ./examples/thinkwait

clean:
	$(GO) clean ./...
