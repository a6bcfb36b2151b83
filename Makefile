# Developer entry points. `make check` is the tier-1 gate every change must
# pass: formatting, vet, a full build, and the test suite.

GO ?= go

.PHONY: check fmt vet build test race examples bench bench-json bench-smoke figures json-figures diff-figures table1-determinism serve loadtest smoke-service stream-smoke resume-smoke fleet fleet-smoke fleet-chaos-smoke fuzz-smoke clean

check: fmt vet build test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every internal package plus the two concurrent commands must stay
# race-clean: above all the campaign runner's goroutine fan-out, the
# service's worker pool and stream sessions, the incremental decoder they
# share, the engine whose observers and callbacks run on its threads'
# coroutines, the fleet coordinator's registry and shared-queue scheduler, and
# cordload's concurrent stage clients. CI runs this.
# Requires cgo (CGO_ENABLED=1) on most platforms.
race:
	$(GO) test -race ./internal/... ./cmd/cordbench/ ./cmd/cordload/

# Run every program under examples/; any non-zero exit fails the target.
# `make check` only compiles them. CI runs this.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null; \
	done

# Campaign scaling benchmark: compare procs=1 vs procs=4 lines.
bench:
	$(GO) test -bench 'Campaign' -benchtime 3x -run '^$$' ./internal/experiment/

# Measure the perf kernels and the campaign slice, writing the
# schema-versioned bench/BENCH_perf.json trajectory artifact. Unlike the
# other BENCH_*.json files this one holds measurements, not simulated
# results: regenerate it each PR and compare numbers against the previous
# revision (see EXPERIMENTS.md, "Tracking the performance trajectory").
bench-json:
	$(GO) run ./cmd/cordperf -benchtime 300ms -injections 8 -out bench/BENCH_perf.json

# One-iteration smoke pass over the same kernels: proves every benchmark
# body still runs without measuring anything. Fast enough for CI.
bench-smoke:
	$(GO) run ./cmd/cordperf -quick -out /dev/null

# Regenerate the paper's full evaluation (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/cordbench -all -injections 80 | tee results.txt

# Golden-baseline campaign: small enough for CI, deterministic at any -procs.
GOLDEN_FLAGS = -all -injections 8 -q

# Regenerate the committed machine-readable baselines in bench/. Run this
# (and commit the result) after any change that intentionally shifts numbers.
json-figures:
	$(GO) run ./cmd/cordbench $(GOLDEN_FLAGS) -json bench > /dev/null

# Gate a fresh run against the committed baselines; non-zero exit on drift.
diff-figures:
	$(GO) run ./cmd/cordbench $(GOLDEN_FLAGS) -diff bench

# Table 1 (FastTrack metadata column included) must come out byte-identical
# whether the campaign runs serial or fanned out: the detector columns are
# functions of the seeds alone. CI runs this.
table1-determinism:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/cordbench -table1 -injections 8 -q -procs 1 -json $$tmp/p1 > /dev/null; \
	$(GO) run ./cmd/cordbench -table1 -injections 8 -q -procs 4 -json $$tmp/p4 > /dev/null; \
	if cmp $$tmp/p1/BENCH_table1.json $$tmp/p4/BENCH_table1.json; then \
		echo "table1 byte-identical at -procs 1 and -procs 4"; rm -rf $$tmp; \
	else \
		echo "table1 differs between -procs 1 and -procs 4"; rm -rf $$tmp; exit 1; \
	fi

# Run the cordd race-detection service in the foreground (see README,
# "Running the service"). Override the listen address with ADDR=:9090.
ADDR ?= :8080

serve:
	$(GO) run ./cmd/cordd -addr $(ADDR)

# Concurrent-client sweep against a running cordd (start one with `make
# serve` first). Parameters follow EXPERIMENTS.md, "Load-testing the
# service"; override with LOAD_FLAGS.
LOAD_FLAGS ?= -sweep 1,2,4,8 -n 16 -app fft -scale 2

loadtest:
	$(GO) run ./cmd/cordload -addr http://127.0.0.1$(ADDR) $(LOAD_FLAGS)

# End-to-end service smoke: build cordd, start it, run one detect session,
# one replay session, and a streaming round-trip (recorded log through
# /v1/stream, embedded detect block byte-compared against one-shot
# /v1/detect) over HTTP, SIGTERM, assert a clean drain. CI runs this.
smoke-service:
	sh scripts/service-smoke.sh

# The streaming round-trip alone (plus its one-shot reference session):
# fastest signal when iterating on the /v1/stream path.
stream-smoke:
	sh scripts/service-smoke.sh stream

# End-to-end crash-recovery smoke: kill -9 a live checkpointed campaign,
# resume it, assert byte-identical artifacts; SIGTERM drain; 20% transient
# chaos completing through retries. CI runs this (see EXPERIMENTS.md,
# "Interrupting and resuming a campaign").
resume-smoke:
	sh scripts/resume-smoke.sh

# Start a local three-worker cordd fleet for distributed campaigns and
# print the -workers value to paste into cordbench (see EXPERIMENTS.md,
# "Running a distributed campaign"). Ctrl-C drains and stops the fleet.
fleet:
	sh scripts/fleet.sh

# End-to-end distributed-campaign smoke (PROTOCOL.md §6): three workers,
# one-run shards, kill -9 one worker mid-campaign; the coordinator must
# drop it, requeue its shards, and exit 0 with artifacts byte-identical to a
# single-process run and to the committed golden baseline. CI runs this.
fleet-smoke:
	sh scripts/fleet-smoke.sh

# Self-healing-fleet chaos smoke (PROTOCOL.md §7): registry plus three
# supervised workers that die and restart on a pinned CORD_CHAOS schedule;
# the coordinator discovers workers through the registry alone and must
# exit 0 with artifacts byte-identical to a single-process run and to the
# committed golden baseline. CI runs this.
fleet-chaos-smoke:
	sh scripts/fleet-chaos-smoke.sh

# Short fuzzing pass over every hardened input surface: the binary order-log
# decoder, the epoch stream (differential against the sort-based schedule
# oracle), the Ideal detector (differential against the per-word-slice
# history oracle), the paged address table (against a map model), the
# three service request parsers, the campaign plan/shard and fleet register
# bodies (every refusal a typed 400 or 422), /v1/stream ingest
# (generated logs at random chunkings, differential against a one-shot
# decode-and-schedule oracle), online detection at duty=100 (differential
# against replay-time detection over the same log), the fleet merge (random shard partitions,
# differential against a single-process campaign), and the engine's posted
# requests (generated programs with injection and migration, differential
# against a run where every call parks). CI runs this; crashes land in
# testdata/fuzz/ for triage.
fuzz-smoke:
	$(GO) test -fuzz 'FuzzDecodeFrom' -fuzztime 10s -run '^$$' ./internal/record/
	$(GO) test -fuzz 'FuzzEpochStream' -fuzztime 10s -run '^$$' ./internal/record/
	$(GO) test -fuzz 'FuzzIdeal' -fuzztime 10s -run '^$$' ./internal/baseline/
	$(GO) test -fuzz 'FuzzTable' -fuzztime 10s -run '^$$' ./internal/memsys/
	$(GO) test -fuzz 'FuzzDetectRequest' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz 'FuzzReplayParams' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz 'FuzzStreamIngest' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz 'FuzzStreamParams' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz 'FuzzOnlineReplayDetection' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz 'FuzzCampaignRequests' -fuzztime 10s -run '^$$' ./internal/server/
	$(GO) test -fuzz 'FuzzShardMerge' -fuzztime 10s -run '^$$' ./internal/experiment/
	$(GO) test -fuzz 'FuzzPostedParked' -fuzztime 10s -run '^$$' ./internal/sim/

clean:
	$(GO) clean ./...
