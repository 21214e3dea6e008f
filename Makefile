GO ?= go

.PHONY: all check build vet test race fmt trace-check repl-smoke groupcommit-smoke compact-smoke view-smoke fuzz-smoke perfbench-test bench bench-smoke bench-compare microbench

all: check

# check is the tier-1 gate: build, vet, race-enabled tests, gofmt as a
# failing check, the tracing-overhead budget, the replication smoke,
# the group-commit stress smoke, the compaction smoke, the
# incremental-view smoke, the fuzz smoke, and the benchmark's own unit
# tests.
check: build vet race fmt trace-check repl-smoke groupcommit-smoke compact-smoke view-smoke fuzz-smoke perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# trace-check measures enabled-tracing overhead on a sleep-dominated
# smoke workload and fails when it exceeds the 5% budget.
trace-check:
	$(GO) run ./cmd/rqlbench -quick -trace-check

# repl-smoke runs the replication acceptance surface under the race
# detector: bootstrap/tail/resume/redirect, byte-identical replicated
# retrospection, cross-version handshake, and the 3-replica fan-out
# stress run with a mid-run replica kill and restart.
repl-smoke:
	$(GO) test -race -run 'TestRepl|TestCrossVersion' ./internal/repl ./internal/server

# groupcommit-smoke runs the group-commit correctness surface under the
# race detector: the concurrent-writer stress harness with its analytic
# shadow model, the serial-equivalence property test (group commit must
# be byte-identical to serial commits), and the conflict/abandon/ctx
# storage tests.
groupcommit-smoke:
	$(GO) test -race -run 'TestGroupCommit|TestExplicitTxConflict|TestAutocommitConflictRetry|TestConnContextCancelsWriterWait|TestBeginCtx|TestQuiesce' . ./internal/storage ./internal/sql ./internal/server

# compact-smoke runs the Pagelog-tiering correctness surface under the
# race detector: sealed-read equivalence, seal crash safety, retention
# drops, the concurrent seal/read/truncate stress loop, the
# compaction-on-vs-off serial-equivalence property test, and
# replication bootstrap over sealed segments.
compact-smoke:
	$(GO) test -race -run 'TestSeal|TestSegment|TestRetention|TestCompact|TestCompaction|TestPagelogClose|TestSnapshotValuesSurviveSealing|TestReplicaBootstrapWithSealedSegments' ./internal/retro ./internal/repl .

# view-smoke runs the incremental materialized-view correctness
# surface under the race detector: the incremental-vs-full-recompute
# property test for all four mechanisms (prune on and off), the
# restart-resume and DDL-lifecycle tests, subscription delivery with a
# shadow model while a concurrent writer commits, and view replication
# (bootstrap shipping, logical DDL events, replica-side maintenance).
view-smoke:
	$(GO) test -race -run 'TestRetroView|TestReplicatedRetroViews|TestViewSmoke' ./internal/core ./internal/repl ./internal/server

# fuzz-smoke runs each fuzz target for 10s beyond its seed corpus: the
# row decoder (FuzzDecodeRow) and B+tree operation sequences with
# in-place replacement, checked against a map model and for overlapping
# cells after every operation (FuzzTreeOps).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 10s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzTreeOps$$' -fuzztime 10s ./internal/btree

# perfbench-test vets and tests the benchmark module (perfbench/, its
# own go.mod): the shadow model that checks every sampled result and
# the spread/median statistics the benchmark reports.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench appends a machine-readable batch-SPT run to BENCH_rql.json:
# wall time, Maplog entries scanned, cache hit rates, and delta-pruning
# outcome per mechanism, sequential and parallel, for legacy vs
# one-sweep batch construction vs batch + delta pruning, plus the
# group-commit and cold-sweep (flat vs tiered Pagelog at 10x history)
# phases. Each run is stamped with the git revision and toggle flags.
bench:
	$(GO) run ./cmd/rqlbench -benchjson BENCH_rql.json

# bench-smoke prints the batch + pipeline tables at quick scale
# (finishes well under a minute; appends nothing, so BENCH_rql.json
# keeps only full-scale, comparable runs).
bench-smoke:
	$(GO) run ./cmd/rqlbench -quick -exp batch

# bench-compare diffs the two newest runs in BENCH_rql.json and exits
# non-zero when any side's wall time regressed by more than 10%.
bench-compare:
	$(GO) run ./cmd/rqlbench -compare BENCH_rql.json

# microbench runs the Go testing benchmarks (one pass, smoke-level),
# among them BenchmarkTableScan (internal/sql), whose allocs/op is the
# per-row decode allocation tax of a pruned multi-page scan, and
# BenchmarkResultTableUpdate (internal/core), whose allocs/op is the
# result-table write cost of one hot AggregateDataInTable iteration
# (200 index searches and in-place row updates).
microbench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
