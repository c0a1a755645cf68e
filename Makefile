# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build vet fmt test test-short race chaos fuzz obs loadtest overload tracesmoke edgesmoke perfbench-test experiments-check goldens vuln bench bench-diff benchsmoke experiments examples cover

all: build vet test

# check is the CI gate for local use: build, vet, formatting, tests,
# the race detector, the observability suite, a load-generator smoke
# run, the overload shed-path smoke, the request-tracing smoke, the
# edge-cache smoke, the benchmark module's own vet and tests, the
# committed evaluation output, the campaign goldens at every seed, and
# a run of every example. CI runs the same targets as one named step
# each.
check: build vet fmt test race obs loadtest overload tracesmoke edgesmoke perfbench-test experiments-check goldens examples

build:
	go build ./...

vet:
	go vet ./...

# fmt fails when gofmt would reformat a tracked Go file (or cannot
# parse one). It checks git's file list, not the working tree, so a
# local .bench_build/ tree is not scanned.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')) || exit 1; \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	go test ./...

test-short:
	go test -short ./...

race:
	go build ./... && go test -race ./...

# chaos drives every ABR algorithm through deterministic fault storms
# (HTTP 5xx/reset/stall/truncate from internal/faults plans, injected at
# the origin by Server's WithFaults and at the client by the httpdash
# tests' faultRoundTripper; link outages via netsim.OutageLink) under
# the race detector. -count=1 defeats the test cache so the storms
# actually run.
chaos:
	go test -race -count=1 ./internal/faults/
	go test -race -count=1 -run 'Chaos|Outage|Truncated|Cancellation' ./internal/httpdash/ ./internal/netsim/ ./internal/sim/ ./internal/campaign/
	go test -race -count=1 -run 'Overload|Admission|Breaker|Shutdown|Panic' ./cmd/loadgen/ ./internal/httpdash/ ./internal/pool/
	go test -race -count=1 -run 'Edge|Stale|Singleflight' ./internal/edgecache/ ./internal/httpdash/

# fuzz runs every Fuzz* target in the module past its seed corpus for
# 10 s each (go test -fuzz takes one target per run), found by name in
# each package's test files, so a new fuzzer joins without an edit
# here. A crasher fails the run and Go writes its input under the
# package's testdata/fuzz/; commit it as a regression seed.
fuzz:
	@go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		for name in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go 2>/dev/null | cut -c6-); do \
			echo "fuzz: $$pkg $$name"; \
			go test -run '^$$' -fuzz "^$$name$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

# obs exercises the telemetry layer end to end under the race detector:
# registry/exposition correctness and concurrency in internal/telemetry,
# then the wiring — per-rung server snapshots and client counters
# (httpdash), live campaign metrics and the zero-overhead/determinism
# pins (campaign, root), and the decision trace: the segment log (sim)
# and its NDJSON export (cmd/streamsim). -count=1 defeats the test
# cache so the concurrent hammers actually run.
obs:
	go test -race -count=1 ./internal/telemetry/
	go test -race -count=1 -run 'Telemetry|Snapshot|Live' ./internal/httpdash/ ./internal/campaign/
	go test -race -count=1 -run 'TestSegmentLogRecordsDecisionContext' ./internal/sim/
	go test -race -count=1 -run 'TestTraceOut|TestTraceWriteFailure' ./cmd/streamsim/
	go test -count=1 -run 'TestSessionAllocsTelemetryDisabled' .

# loadtest smokes the serving path end to end: cmd/loadgen stands up an
# in-process httpdash server, hammers it with closed-loop workers for a
# couple of seconds, and fails if the JSON report lands under 1 req/s —
# a floor so low that only a wedged serving path can miss it.
loadtest:
	go run ./cmd/loadgen -workers 4 -duration 2s -min-rps 1 -json

# overload smokes the shed path end to end: loadgen's open loop offers
# 400 req/s against an in-process server admitting 4 concurrent
# transfers (queue of 8, 50ms deadline, 4 MB/s token bucket) — far past
# capacity — and -gate-overload fails the run unless shedding actually
# happened, issued == ok + shed + errors + aborted, every 5xx carried
# Retry-After, and Shutdown left zero transfers in flight.
overload:
	go run ./cmd/loadgen -rps 400 -max-inflight 4 -max-queue 8 -queue-wait 50ms -rate 4 -rungs 0 -duration 2s -json -gate-overload

# tracesmoke smokes request tracing end to end: a 2s loadgen run with
# injected 5xx faults and retries, tracing on with keep-everything
# sampling, and -gate-trace fails the run unless the store holds at
# least one sampled cross-process trace — client attempt spans and
# server spans merged under one trace ID, proving the traceparent
# header survived the wire.
tracesmoke:
	go run ./cmd/loadgen -workers 4 -duration 2s -fault-5xx 0.25 -fault-max-per-key 1 -retries 3 -rungs 0 -trace-cap 2048 -trace-ratio 1 -trace-slowest 3 -json -gate-trace

# edgesmoke smokes the caching edge tier end to end: loadgen offers
# 300 req/s for 2s through an in-process edge proxy fronting an
# in-process origin, cycling one rung of a 10-segment presentation, so
# after the 10 cold fills everything is a cache hit. -gate-hit-ratio
# fails the run unless the hit ratio reaches 90% and every edge request
# resolved to exactly one of hit/fill/stale/error; -gate-trace (keep-
# everything sampling) additionally requires one sampled miss whose
# loadgen, edge, and server fragments merged into a single three-
# service trace — proof the traceparent header survived both hops.
edgesmoke:
	go run ./cmd/loadgen -edge -rps 300 -duration 2s -video-sec 20 -rungs 0 -gate-hit-ratio 0.9 -trace-cap 4096 -trace-ratio 1 -json -gate-trace

# perfbench-test vets and tests the benchmark (perfbench/, see
# BENCHMARK.json). It is its own Go module importing this one through
# `replace ecavs => ../`, so the root `go test ./...` never compiles it:
# without this target an API change could break the benchmark's build
# while every root test stays green.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

# vuln scans the module against the Go vulnerability database. The
# scanner is optional locally (it needs a network fetch to install);
# CI installs it explicitly, so absence here is a skip, not a failure.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# bench runs the full suite with -benchmem and records a dated JSON
# snapshot (name, ns/op, allocs/op, B/op) for regression tracking.
bench:
	go test -bench=. -benchmem ./... | tee /dev/stderr | go run ./cmd/benchdiff -parse -out BENCH_$(shell date +%Y-%m-%d).json

# bench-diff compares two snapshots and fails on >20% regressions:
#   make bench-diff OLD=BENCH_2026-08-01.json NEW=BENCH_2026-08-06.json
bench-diff:
	go run ./cmd/benchdiff -old $(OLD) -new $(NEW)

# benchsmoke runs the session and campaign benchmarks and the two hot
# callers of the rung scorer (the Online decision and the optimal
# planner) once each
# (-benchtime=1x: a compile-and-execute smoke test, not a measurement)
# and diffs the result against the newest committed snapshot.
# Single-iteration numbers are noisy — timings wildly, and allocations
# somewhat, because b.N=1 charges one-time memoization (compiled traces,
# rung tables) to the only iteration — so the diff is informational:
# the leading `-` keeps it from failing the build. The real gate is a
# full `make bench` snapshot compared with bench-diff.
# Dated snapshots sort lexicographically by date; BENCH_seed.json is
# excluded so the baseline is the most recent recording, not the seed.
BENCH_BASELINE := $(lastword $(sort $(wildcard BENCH_2*.json)))
benchsmoke:
	go test -bench='Session|Campaign|OnlineDecision|OptimalPlanner' -benchtime=1x -benchmem -run='^$$' . \
		| go run ./cmd/benchdiff -parse -out /tmp/benchsmoke.json
	-go run ./cmd/benchdiff -old $(BENCH_BASELINE) -new /tmp/benchsmoke.json

# experiments-check reruns the full evaluation serially (GOMAXPROCS=1)
# and with eight workers (GOMAXPROCS=8) and fails unless each output is
# byte-identical to the committed experiments_output.txt: every change
# to the models, algorithms, planner or session loop must leave the
# paper's tables and figures, and their parallel determinism, as they
# are, or regenerate the file on purpose with `make experiments`.
experiments-check:
	GOMAXPROCS=1 go run ./cmd/experiments | diff experiments_output.txt -
	GOMAXPROCS=8 go run ./cmd/experiments | diff experiments_output.txt -

# goldens runs the benchmark's campaign workload for 1 s at each of its
# 32 golden seeds (0-31) and fails unless every run's result line reads
# correct with no failed operation. Every campaign batch is checked
# against perfbench/testdata/campaign_golden.json, so a change to the
# session arithmetic or to a campaign or outage random stream fails
# here; make perfbench-test checks seeds 1 and 2 only. Seed s runs at
# GOMAXPROCS 1, 2 or 8 in turn (s mod 3), so the goldens also see the
# campaign's sessions on one, two and eight workers, and each seed still
# runs once. About 3 s a seed after run.py's first build (.bench_build/,
# ~30 s).
goldens:
	@for s in $$(seq 0 31); do \
		p=$$(echo 1 2 8 | cut -d ' ' -f $$((s % 3 + 1))); \
		out=$$(GOMAXPROCS=$$p python3 perfbench/run.py --workload campaign --seed $$s --seconds 1 --trace 0) || \
			{ echo "goldens: seed $$s (GOMAXPROCS $$p): run failed"; exit 1; }; \
		echo "$$out" | tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); \
			ok = r.get("correct") is True and r.get("failed") == 0; \
			print("goldens: seed", sys.argv[1], "GOMAXPROCS", sys.argv[2], "ok" if ok else "FAILED", "(%s batches, %s failed)" % (r.get("attempted"), r.get("failed"))); \
			sys.exit(0 if ok else 1)' $$s $$p || exit 1; \
	done

# Regenerate every paper table/figure plus the ablations and extensions.
experiments:
	go run ./cmd/experiments | tee experiments_output.txt

# examples runs every program under examples/ to completion; each must
# exit 0. go build compiles them but never runs them.
examples:
	go run ./examples/quickstart
	go run ./examples/busride
	go run ./examples/alphasweep
	go run ./examples/modelfit
	go run ./examples/fairshare
	go run ./examples/trainagent
	go run ./examples/httpstream

cover:
	go test -cover ./...
