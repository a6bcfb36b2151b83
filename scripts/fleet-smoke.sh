#!/bin/sh
# End-to-end distributed-campaign smoke test (PROTOCOL.md §6): start a
# three-worker cordd fleet, dispatch the Fig 12 campaign across it with
# one-run shards, kill -9 one worker mid-campaign, and assert that the
# coordinator exits 0 with artifacts byte-identical to a single-process
# run AND to the committed golden baseline. The distributed layer must be
# invisible in the output — worker count, shard boundaries, and failure
# schedule included.
#
# Pure POSIX sh + curl: no test framework, no jq. CI runs this;
# `make fleet-smoke` runs it locally.
set -eu

. "$(dirname "$0")/fleet-lib.sh"

BASE="${CORD_FLEET_PORT:-18280}"
DIR="$(mktemp -d)"
FLAGS="-fig12 -injections 8"

# A smoke test is done with its workers when it exits: no graceful drain.
FLEET_KILL_SIGNAL=KILL
fleet_trap_cleanup

fail() {
	echo "fleet-smoke: FAIL: $*" >&2
	for log in "$DIR"/cordd-*.log "$DIR"/dispatch.log "$DIR"/ref.log; do
		if [ -s "$log" ]; then
			echo "--- $(basename "$log") (tail) ---" >&2
			tail -40 "$log" >&2
		fi
	done
	exit 1
}

echo "fleet-smoke: building cordd and cordbench"
go build -o "$DIR/cordd" ./cmd/cordd
go build -o "$DIR/cordbench" ./cmd/cordbench

echo "fleet-smoke: single-process reference run"
"$DIR/cordbench" $FLAGS -q -json "$DIR/ref" >/dev/null 2>"$DIR/ref.log" \
	|| fail "reference campaign failed"

echo "fleet-smoke: starting 3 workers"
URLS=""
i=0
while [ "$i" -lt 3 ]; do
	port=$((BASE + i))
	"$DIR/cordd" -addr "127.0.0.1:$port" -workers 2 \
		>"$DIR/cordd-$port.log" 2>&1 &
	PIDS="$PIDS $!"
	URLS="${URLS:+$URLS,}http://127.0.0.1:$port"
	i=$((i + 1))
done
VICTIM_PID="${PIDS##* }"
VICTIM_PORT=$((BASE + 2))

for url in $(echo "$URLS" | tr ',' ' '); do
	fleet_wait_healthy "$url" || fail "workers did not become healthy"
done

echo "fleet-smoke: dispatching ($FLAGS, one-run shards) across $URLS"
"$DIR/cordbench" $FLAGS -workers "$URLS" -shard-runs 1 \
	-checkpoint "$DIR/ck" -json "$DIR/out" \
	>/dev/null 2>"$DIR/dispatch.log" &
COORD=$!

# Kill one worker as soon as the first remote outcome lands in the
# coordinator's journal — mid-campaign by construction.
JOURNAL="$DIR/ck/journal.cordckpt"
i=0
while :; do
	if [ -f "$JOURNAL" ]; then size=$(wc -c <"$JOURNAL"); else size=0; fi
	[ "$size" -gt 12 ] && break
	kill -0 "$COORD" 2>/dev/null || fail "coordinator exited before journaling any remote outcome"
	i=$((i + 1))
	[ "$i" -ge 600 ] && fail "no remote outcome ever reached the journal"
	sleep 0.1
done
echo "fleet-smoke: kill -9 worker on port $VICTIM_PORT mid-campaign"
kill -9 "$VICTIM_PID"

status=0
wait "$COORD" || status=$?
[ "$status" -eq 0 ] || fail "coordinator exited $status after losing a worker, want 0"

[ -f "$DIR/out/BENCH_fig12.json" ] || fail "dispatched campaign wrote no BENCH_fig12.json"
cmp -s "$DIR/ref/BENCH_fig12.json" "$DIR/out/BENCH_fig12.json" \
	|| fail "fleet artifact differs from the single-process run"
cmp -s bench/BENCH_fig12.json "$DIR/out/BENCH_fig12.json" \
	|| fail "fleet artifact differs from the committed golden baseline"

# The kill must have been real failover, not a no-op after the last shard.
# It lands after the first of 96 shards. The victim has no backlog of its
# own, but its loop always holds or takes another of the 95 queued shards,
# so the coordinator must drop it and requeue that shard at the queue head.
# Nothing re-routes a requeued shard, so a survivor completes it "via
# requeue".
grep -q "fleet: dropping http://127.0.0.1:$VICTIM_PORT " "$DIR/dispatch.log" \
	|| fail "the coordinator never dropped the killed worker"
grep -q " via requeue " "$DIR/dispatch.log" \
	|| fail "no survivor completed the killed worker's requeued shard"

echo "fleet-smoke: PASS (worker killed mid-campaign; exit 0; artifacts byte-identical to single-process run and golden baseline)"
