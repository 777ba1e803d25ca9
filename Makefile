GO ?= go

.PHONY: all build vet test race bench bench-range bench-e2e bench-compare figures examples torture torture-wal crash-check loc serve loadtest metrics-smoke trace-smoke check-si

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# YCSB-E-style range cells: the ordered-index builds under a scan-heavy
# mix next to the internal/ds MV-RLU BST baseline, plus the index
# microbenchmarks.
bench-range:
	$(GO) test -bench 'Range|Skiplist|Ordered' -benchmem -run '^$$' ./internal/index
	$(GO) run ./cmd/mvbench -fig ycsb-e -threads 1,2,4

# Regenerate every paper table and figure with moderate budgets.
figures:
	$(GO) run ./cmd/mvbench -fig all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bank
	$(GO) run ./examples/kvcache
	$(GO) run ./examples/longreader

torture:
	$(GO) run ./cmd/mvtorture -duration 10s -threads 8
	$(GO) run ./cmd/mvtorture -duration 10s -config tiny-log
	$(GO) run ./cmd/mvtorture -duration 10s -config dynamic-log
	$(GO) run ./cmd/mvtorture -duration 10s -shards 4 -threads 2
	$(GO) run -race ./cmd/mvtorture -duration 10s -config tiny-log \
		-faults 'readlock-pin=panic/211,trylock-cas=panic/193,commit-publish=panic/197,alloc-capacity=panic/41,writeback=panic/19,detector-scan=panic/11' \
		-panicfrac 0.05 -stallpin 25ms

# WAL fault torture: the group-commit logger crashed at every injection
# point (torn write, before fsync, after fsync) under concurrent
# writers, the logger's drain points (barrier, backpressure, close,
# checkpoint), plus the server-level degraded-mode and recovery tests —
# all under the race detector.
torture-wal:
	$(GO) test -race -count 1 -run 'TestCrashTorture|TestRecover|TestReplay|TestEpoch|TestSnapshotCutoff|TestAppendsWaitForBarrier|TestBlockedAppenderDrains|TestCloseSyncsUnbarrieredRecords|TestCheckpointCoversUnbarrieredRecords' ./internal/wal
	$(GO) test -race -count 1 -run 'TestWAL' ./internal/server

# kill -9 a WAL-backed daemon mid-burst, restart, and audit that every
# acknowledged write survived (1 shard and 4).
crash-check:
	./scripts/crash_check.sh

# Run the KV daemon in the foreground (ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/mvkvd -addr 127.0.0.1:6399 -store mvrlu-kv

# Closed-loop load against a running `make serve`.
loadtest:
	$(GO) run ./cmd/mvkvload -addr 127.0.0.1:6399 -conns 8 -pipeline 16 \
		-readpct 90 -duration 5s

# The layered end-to-end benchmark (benchmark/README.md): four workloads,
# untraced then traced, through the driver's entry point. Add
# ARGS=-history to append the result to benchmark/history.jsonl.
bench-e2e:
	bash benchmark/run.sh $(ARGS)

# Compare two result files of the benchmark, e.g. a parent-commit run
# against this checkout's: make bench-compare A=base.jsonl B=change.jsonl
# (exit 1 on a regression beyond a metric's bound).
bench-compare:
	$(GO) run ./benchmark compare $(A) $(B)

# Scrape-safety smoke: race-built daemon under load while /metrics,
# INFO, and METRICS are polled in a loop (fails on any scrape error or
# a non-monotonic counter).
metrics-smoke:
	./scripts/metrics_smoke.sh

# Tracing smoke: race-built daemon with -trace and a failpoint that
# sleeps 8ms between WAL write and fsync; asserts the flight recorder's
# slowest trace is dominated by the group-fsync barrier, the event
# timeline saw the fsyncs, /debug/traces parses as JSON, and the scrape
# carries exemplars.
trace-smoke:
	./scripts/trace_smoke.sh

# Snapshot-isolation checker gate: race-built replay runs on all three
# engines (with and without injected clock skew), a checker-attached
# torture pass, and mutation runs — a build with -tags mvrlu_mutate
# plants known engine bugs (including a late-publishing commit word and,
# on mvrlu-kv, a split body and a late-published bucket sentinel), so
# the checker, the commit-word test and each engine's no-wait test MUST
# flag it; the gate goes red if a mutated run comes back clean.
check-si:
	$(GO) run -race ./cmd/mvcheck -engine mvrlu -ops 5000
	$(GO) run -race ./cmd/mvcheck -engine mvrlu -ops 5000 -skew 20us
	$(GO) run -race ./cmd/mvcheck -engine mvrlu -ops 5000 -shards 4
	$(GO) run -race ./cmd/mvcheck -engine rlu -ops 5000
	$(GO) run -race ./cmd/mvcheck -engine rcu -ops 5000
	$(GO) run -race ./cmd/mvcheck -engine mvrlu-idx -objects 64 -ops 2000
	$(GO) run -race ./cmd/mvcheck -engine rlu-idx -objects 64 -ops 2000
	$(GO) run -race ./cmd/mvcheck -engine vanilla-idx -objects 64 -ops 2000
	$(GO) run -race ./cmd/mvcheck -engine mvrlu-kv -objects 64 -ops 2000
	$(GO) run -race ./cmd/mvcheck -engine rlu-kv -objects 64 -ops 2000
	$(GO) run -race ./cmd/mvcheck -engine vanilla -objects 64 -ops 2000
	$(GO) run -race ./cmd/mvtorture -duration 5s -config tiny-log -check
	@echo "mutation run (must FAIL):"
	@if $(GO) run -tags mvrlu_mutate ./cmd/mvcheck -engine mvrlu -ops 5000 -skew 20us >/dev/null 2>&1; then \
		echo "FAIL: checker did not flag the mutated engine"; exit 1; \
	else \
		echo "ok: checker flagged the mutated engine"; \
	fi
	@echo "index mutation run (must FAIL):"
	@if $(GO) run -tags mvrlu_mutate ./cmd/mvcheck -engine mvrlu-idx -objects 64 -ops 2000 >/dev/null 2>&1; then \
		echo "FAIL: checker did not flag the mutated index range walk"; exit 1; \
	else \
		echo "ok: checker flagged the mutated index range walk"; \
	fi
	@echo "descending-only index mutation run (the test asserts the checker flags it):"
	$(GO) test -tags mvrlu_mutate -count=1 -run 'TestKVCheckCatchesUnpin' ./internal/index
	@echo "split-body mutation runs (each must FAIL with a kv-range-snapshot or kv-torn-txn report):"
	@$(GO) test -count=1 -cpu 1,2 -run '^TestKVCheckCatchesSplitBody$$' ./internal/kvstore >/dev/null || { echo "FAIL: TestKVCheckCatchesSplitBody fails unmutated"; exit 1; }
	@for cpu in 1 2; do \
		if out=$$($(GO) test -tags mvrlu_mutate -count=1 -cpu $$cpu -run '^TestKVCheckCatchesSplitBody$$' ./internal/kvstore 2>&1); then \
			echo "FAIL: TestKVCheckCatchesSplitBody passed with split bodies planted (-cpu $$cpu)"; exit 1; \
		fi; \
		echo "$$out" | grep -qE 'kv-range-snapshot|kv-torn-txn' || { echo "$$out"; echo "FAIL: no torn-body report (-cpu $$cpu)"; exit 1; }; \
		echo "ok: CheckKV caught the split body (-cpu $$cpu)"; \
	done
	@echo "late-sentinel mutation runs (each must FAIL with a kv-range-missing report):"
	@$(GO) test -count=1 -cpu 1,2 -run '^TestKVCheckCatchesLateBucket$$' ./internal/kvstore >/dev/null || { echo "FAIL: TestKVCheckCatchesLateBucket fails unmutated"; exit 1; }
	@for cpu in 1 2; do \
		if out=$$($(GO) test -tags mvrlu_mutate -count=1 -cpu $$cpu -run '^TestKVCheckCatchesLateBucket$$' ./internal/kvstore 2>&1); then \
			echo "FAIL: TestKVCheckCatchesLateBucket passed with late sentinels planted (-cpu $$cpu)"; exit 1; \
		fi; \
		echo "$$out" | grep -q 'kv-range-missing' || { echo "$$out"; echo "FAIL: no kv-range-missing report (-cpu $$cpu)"; exit 1; }; \
		echo "ok: CheckKV caught the late sentinel (-cpu $$cpu)"; \
	done
	@echo "late-publish mutation runs (each must FAIL: the word-level test and every engine's no-wait test):"
	@for pt in clock:TestLatePublishTearsSnapshot core:TestReaderStampsCommittingHeader \
		rlu:TestReaderStampsSealedFlush vp:TestReaderStampsSealedCommit db:TestHekatonReaderStampsSealedCommit; do \
		pkg=$${pt%%:*}; name=$${pt#*:}; \
		$(GO) test -count=1 -run "^$$name\$$" ./internal/$$pkg >/dev/null || { echo "FAIL: $$name fails unmutated"; exit 1; }; \
		if $(GO) test -tags mvrlu_mutate -count=1 -run "^$$name\$$" ./internal/$$pkg >/dev/null 2>&1; then \
			echo "FAIL: $$name did not catch the late publish"; exit 1; \
		fi; \
		echo "ok: $$name caught the late publish"; \
	done

loc:
	@find . -name '*.go' | xargs wc -l | tail -1
