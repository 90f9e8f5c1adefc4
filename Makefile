# byzex build / verification entry points.
#
#   make check       - tier-1 gate: lint, build everything, full test suite,
#                      plus -race on the concurrency-heavy packages
#   make lint        - gofmt -l (fails on unformatted files) + go vet ./...
#   make bench       - tier-1 benchmarks; archives machine-readable results in BENCH_001.json
#   make bench-trace - tracing-overhead benchmark; archives results in BENCH_002.json
#   make test        - plain test run (no race detector)
#   make bench-service - serving-layer benchmarks; archives BENCH_003.json
#                      (batch amortization) and BENCH_004.json (shard scaling)
#   make bench-transport - warm-mesh + frame-path benchmarks; archives
#                      BENCH_005.json (warm vs cold mesh, zero-alloc frame
#                      path, warm-TCP shard scaling)
#   make baexp       - regenerate every evaluation table
#   make trace-smoke - end-to-end trace pipeline check (basim -trace → batrace)
#   make faults      - fault-injection scenario matrix under -race (part of check)
#   make slo         - open-loop SLO gate: Poisson load against a self-hosted
#                      server must meet a generous p99 (part of check)
#   make bench-ops   - ops-plane benchmarks (open-loop latency, zero-alloc
#                      metrics scrape); archives BENCH_006.json
#   make bench-journal - durability benchmarks (fsync policies, recovery scan,
#                      segment rotation, compacted-recovery flatness, plus the
#                      live churn drill); archives BENCH_008.json
#   make crash       - crash-recovery drill: SIGKILL a journaled server
#                      mid-load, restart it, verify replay (part of check)
#   make upgrade     - rolling-upgrade drill: roll a two-server fleet across
#                      wire frame versions under load (part of check)
#   make search      - adversary-search gate vs the Theorem 1/2 bounds
#                      (best-found below bound or a broken correct protocol
#                      fails; strawmen must be found broken); SEARCH_BUDGET=n
#                      sets the budget (make check uses a short one)
#   make bench-search - run the gate at the full budget and archive the
#                      per-protocol gap-to-bound atlas as BENCH_009.json
#   make fuzz        - run every fuzz target on a short fixed budget

GO ?= go
GOFMT ?= gofmt

.PHONY: check lint test bench bench-trace bench-service bench-transport bench-ops bench-journal bench-search search baexp trace-smoke faults slo crash upgrade fuzz

check: lint faults
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race -count=1 ./internal/service/ ./internal/runner/ ./internal/transport/ ./internal/obs/ ./internal/journal/ ./internal/search/
	$(MAKE) crash
	$(MAKE) upgrade
	$(MAKE) slo
	$(MAKE) search SEARCH_BUDGET=48

# The durability gate: a journaled server is SIGKILLed mid-load (a forked
# child process — an in-process drain can never tear a write), then restarted
# over the same journal directory. The drill asserts the recovered watermark
# clears every journaled id, every pending admission replays byte-identically
# (trace-pinned), and live traffic resumes with fresh ids past the watermark.
crash:
	$(GO) test -race -count=1 ./cmd/baserve/ -run 'TestServeCrashRecovery'

# The rolling-upgrade gate: two journaled baserve processes on the TCP
# transport, one pinned to the previous frame version; it is drained and
# restarted at the current version while its sibling serves uninterrupted,
# and instance ids continue exactly past the drain checkpoint. The same roll
# is repeated at warm-mesh granularity (SetPeerWireVersion mid-mesh).
upgrade:
	$(GO) test -race -count=1 ./cmd/baserve/ -run 'TestServeRollingUpgrade'

# The serving SLO gate: a short open-loop run (Poisson arrivals, latency
# measured from each scheduled arrival, rejections shed) against a
# self-hosted sharded server. -slo-p99 makes the run exit non-zero on a
# violation; the bound is deliberately generous — this catches
# pipeline-level latency regressions (a stuck sequencer, an accidental
# closed-loop retry), not machine noise.
slo:
	$(GO) run ./cmd/baload -selfhost -protocol alg1-multi -t 3 \
		-shards 4 -batch 8 -adaptive -c 16 -mod 64 \
		-rate 400 -duration 3s -seed 1 -slo-p99 2s

# Formatting and static-analysis gate. gofmt -l prints offending files; the
# shell turns any output into a failure so CI catches drift.
lint:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The fault-injection gate: every numbered algorithm against every fault
# family (crash/drop/dup/reorder/delay/partition) over real TCP, in-budget
# plans must agree and replay byte-identically, over-budget plans must fail
# typed; plus the table test of sim.FilterFaults, the one delivery filter
# both substrates apply plans through. Also run standalone for a quick
# transport-layer signal.
faults:
	$(GO) test -race -count=1 ./internal/transport/ ./internal/sim/ -run 'TestScenarioMatrix|TestCrashAtPhaseK|TestOverBudgetFaultsFailTyped|TestFilterFaults'

test:
	$(GO) test ./...

# The tier-1 benchmarks: the per-experiment harness at the repo root plus the
# engine and signature micro-benchmarks. Fixed -benchtime keeps run-to-run
# iteration counts comparable; benchjson mirrors the text output to stderr
# and writes the parsed JSON, embedding the recorded seed numbers
# (BENCH_BASELINE.json) for a before/after diff in one file.
bench:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	{ $(GO) test -bench 'BenchmarkE2Alg2|BenchmarkE5Alg5' -benchtime=5x -benchmem -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkEngineBroadcast|BenchmarkEngineHotPath' -benchtime=20x -benchmem -run '^$$' ./internal/sim/ ; \
	  $(GO) test -bench 'BenchmarkChainVerify' -benchmem -run '^$$' ./internal/sig/ ; } \
	| /tmp/benchjson -label current -baseline BENCH_BASELINE.json > BENCH_001.json

# Tracing overhead, archived separately from the engine baseline: the
# disabled case must track BenchmarkEngineBroadcast/n=64, and allocs/op must
# be identical across disabled/nop/ring (the no-op sink path adds zero
# allocations).
bench-trace:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -bench 'BenchmarkTraceOverhead' -benchtime=20x -benchmem -run '^$$' ./internal/sim/ \
	| /tmp/benchjson -label current > BENCH_002.json

baexp:
	$(GO) run ./cmd/baexp

# Amortized serving cost: messages/signatures per decided value at batch
# sizes 1/4/16 under a saturated service (BENCH_003), then the sharding sweep
# on the latency-modeled substrate — shard count × fixed/adaptive batching,
# values/s and msgs/value (BENCH_004).
bench-service:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -bench 'BenchmarkServiceThroughput' -benchtime=200x -benchmem -run '^$$' ./internal/service/ \
	| /tmp/benchjson -label current > BENCH_003.json
	$(GO) test -bench 'BenchmarkServiceSharded' -benchtime=300x -benchmem -run '^$$' -timeout 20m ./internal/service/ \
	| /tmp/benchjson -label current > BENCH_004.json

# The warm-mesh tentpole numbers (BENCH_005): one instance per iteration over
# a cold (dial + teardown) versus warm (reused) mesh, the steady-state frame
# path on a real loopback socket (allocs/op must report 0), and the real-TCP
# shard sweep over warm meshes with a modeled 2ms link delay — values/s must
# rise monotonically from 1 to 8 shards.
bench-transport:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	{ $(GO) test -bench 'BenchmarkMeshWarmVsCold|BenchmarkFramePath' -benchtime=200x -benchmem -run '^$$' ./internal/transport/ ; \
	  $(GO) test -bench 'BenchmarkServiceWarmTCP' -benchtime=300x -benchmem -run '^$$' -timeout 20m ./internal/service/ ; } \
	| /tmp/benchjson -label current > BENCH_005.json

# The ops-plane numbers (BENCH_006): sustained open-loop serving over the
# real wire (offered/s vs values/s, coordinated-omission-free p50/p99, shed
# fraction) and the metrics scrape path (allocs/op must report 0 — a tight
# scrape loop adds no GC pressure to a loaded server).
bench-ops:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	{ $(GO) test -bench 'BenchmarkServiceOpenLoop' -benchtime=4000x -benchmem -run '^$$' ./internal/service/ ; \
	  $(GO) test -bench 'BenchmarkMetricsScrape' -benchtime=20000x -benchmem -run '^$$' ./internal/obs/ ; } \
	| /tmp/benchjson -label current > BENCH_006.json

# The durability numbers (BENCH_008): the fsync trade-off (per-record sync
# versus group commit, with syncs/op reported so the realized commit batch is
# visible), the recovery scan over a 10k-record journal, segment-size
# sensitivity of the append path, compacted recovery staying flat as the
# total journaled volume grows 10k→100k (records-scanned bounded by the
# checkpoint cadence), replay throughput, and the live kill/restart churn
# drill (recovery time and replayed count per restart). The churn drill runs
# as its own command first — it is a gate (replay count must stay within the
# checkpoint budget), and a pipe would mask its exit code.
bench-journal:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) build -o /tmp/baload ./cmd/baload
	rm -rf /tmp/byzex-churn-journal
	/tmp/baload -churn 3 -churn-acks 48 -c 8 -protocol alg1 -t 1 -shards 2 \
		-journal-dir /tmp/byzex-churn-journal -fsync always -checkpoint-every 16 \
		> /tmp/byzex-churn-bench.txt
	{ $(GO) test -bench 'BenchmarkJournal' -benchtime=200x -benchmem -run '^$$' ./internal/journal/ ; \
	  cat /tmp/byzex-churn-bench.txt ; } \
	| /tmp/benchjson -label current > BENCH_008.json

# The adversary-search gate: the search minimizes correct-sender signatures
# and messages per registry protocol and exits 1 when a correct protocol is
# broken or undercuts its Theorem 1/2 bound, or a strawman survives
# unbroken. The command runs standalone — a pipe would mask its exit code.
# A fixed -seed makes the output reproduce byte-identically. `make check`
# runs it at a short budget; `make bench-search` at the full default.
SEARCH_BUDGET ?= 240
search:
	$(GO) build -o /tmp/baattack ./cmd/baattack
	/tmp/baattack -search -protocol all -objective both \
		-budget $(SEARCH_BUDGET) -seed 1 -bench > /tmp/byzex-search-bench.txt

# The gap-to-bound atlas (BENCH_009): archive best-found vs
# core.SigLowerBound / core.MsgLowerBound from a full-budget search run.
bench-search: search
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	/tmp/benchjson -label current < /tmp/byzex-search-bench.txt > BENCH_009.json

# Short fixed-budget fuzzing of every decoder that touches attacker-supplied
# bytes: the wire codec (seeded from captured real-run envelopes), the
# signature-chain unmarshalers and the fault-spec parser (accepted specs must
# round-trip through FormatSpec to the same plan). `go test -fuzz` accepts
# one target per run.
fuzz:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz 'FuzzFrameBodyDecode$$' -fuzztime 20s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz 'FuzzReaderPrimitives$$' -fuzztime 10s
	$(GO) test ./internal/sig/ -run '^$$' -fuzz 'FuzzUnmarshalSignedValue$$' -fuzztime 10s
	$(GO) test ./internal/sig/ -run '^$$' -fuzz 'FuzzUnmarshalSignedBytes$$' -fuzztime 10s
	$(GO) test ./internal/sig/ -run '^$$' -fuzz 'FuzzChainVerifyNeverAcceptsUnsigned$$' -fuzztime 10s
	$(GO) test ./internal/faultnet/ -run '^$$' -fuzz 'FuzzParseSpec$$' -fuzztime 10s

# End-to-end smoke of the trace pipeline: run basim with -trace (which
# itself fails if the trace disagrees with metrics.Report), then parse and
# summarize the JSONL with batrace. Exercises both transports.
trace-smoke:
	$(GO) build -o /tmp/basim ./cmd/basim
	$(GO) build -o /tmp/batrace ./cmd/batrace
	/tmp/basim -protocol alg1 -t 3 -adversary split-brain -trace /tmp/byzex-smoke-mem.jsonl -metrics /tmp/byzex-smoke-mem-metrics.json
	/tmp/batrace -counts -report /tmp/byzex-smoke-mem-metrics.json /tmp/byzex-smoke-mem.jsonl
	/tmp/basim -protocol dolev-strong -n 8 -t 2 -transport tcp -adversary silent -trace /tmp/byzex-smoke-tcp.jsonl
	/tmp/batrace /tmp/byzex-smoke-tcp.jsonl
