#!/bin/sh
# Self-healing-fleet chaos smoke test (PROTOCOL.md §7): start a cordd
# registry plus three supervised workers whose CORD_CHAOS spec kills each
# of them on a pinned, seed-deterministic schedule (exit 42, connection
# dropped mid-response, no cleanup); supervisors restart them after
# CHAOS_DELAY and they re-register. The coordinator discovers
# workers through the registry alone, and must ride out every kill through
# retries, requeues, and re-registration — exiting 0 with artifacts
# byte-identical to a single-process run AND to the committed golden
# baseline. Kills are not optional: the pinned seeds (101/202/303 at
# worker-kill=0.15) each fire within the first handful of shard
# completions, so the test fails if no worker ever died.
#
# Pure POSIX sh + curl: no test framework, no jq. CI runs this;
# `make fleet-chaos-smoke` runs it locally.
set -eu

. "$(dirname "$0")/fleet-lib.sh"

BASE="${CORD_FLEET_PORT:-18380}"
DIR="$(mktemp -d)"
FLAGS="-fig12 -injections 8"
REGISTRY="http://127.0.0.1:$BASE"
# Pinned schedule: at worker-kill=0.15 these seeds first kill after shard
# completions 2, 4, and 6 of each incarnation — every worker provably dies
# at least once early in the campaign, then keeps dying on the same
# deterministic schedule after each restart.
CHAOS_P="0.15"
CHAOS_DELAY="0.3" # seconds a supervisor waits before restarting a killed worker
SEEDS="101 202 303"

# A smoke test is done with its workers when it exits: no graceful drain.
FLEET_KILL_SIGNAL=KILL
fleet_trap_cleanup

fail() {
	echo "fleet-chaos-smoke: FAIL: $*" >&2
	for log in "$DIR"/cordd-*.log "$DIR"/dispatch.log "$DIR"/ref.log; do
		if [ -s "$log" ]; then
			echo "--- $(basename "$log") (tail) ---" >&2
			tail -40 "$log" >&2
		fi
	done
	exit 1
}

echo "fleet-chaos-smoke: building cordd and cordbench"
go build -o "$DIR/cordd" ./cmd/cordd
go build -o "$DIR/cordbench" ./cmd/cordbench

echo "fleet-chaos-smoke: single-process reference run"
"$DIR/cordbench" $FLAGS -q -json "$DIR/ref" >/dev/null 2>"$DIR/ref.log" \
	|| fail "reference campaign failed"

echo "fleet-chaos-smoke: starting registry at $REGISTRY"
"$DIR/cordd" -addr "127.0.0.1:$BASE" \
	>"$DIR/cordd-registry.log" 2>&1 &
PIDS="$PIDS $!"
fleet_wait_healthy "$REGISTRY" || fail "registry did not become healthy"

# supervise runs one worker under its pinned chaos spec, restarting it
# after every injected kill (exit 42) and stopping on any other exit.
# Short -register-ttl so the registry notices a death within ~2s.
supervise() (
	port="$1"
	seed="$2"
	while :; do
		code=0
		CORD_CHAOS="worker-kill=$CHAOS_P,seed=$seed" \
			"$DIR/cordd" -addr "127.0.0.1:$port" -workers 2 \
			-register "$REGISTRY" -register-ttl 2s \
			>>"$DIR/cordd-$port.log" 2>&1 || code=$?
		if [ "$code" -ne 42 ]; then
			return 0
		fi
		sleep "$CHAOS_DELAY"
	done
)

echo "fleet-chaos-smoke: starting 3 supervised workers (worker-kill=$CHAOS_P, seeds $SEEDS)"
i=1
for seed in $SEEDS; do
	supervise $((BASE + i)) "$seed" &
	PIDS="$PIDS $!"
	i=$((i + 1))
done

fleet_wait_registered "$REGISTRY" 3 || fail "workers never registered"

echo "fleet-chaos-smoke: dispatching ($FLAGS, one-run shards) via the registry"
status=0
"$DIR/cordbench" $FLAGS -registry "$REGISTRY" -shard-runs 1 \
	-checkpoint "$DIR/ck" -json "$DIR/out" \
	>/dev/null 2>"$DIR/dispatch.log" || status=$?
[ "$status" -eq 0 ] || fail "coordinator exited $status under worker-kill chaos, want 0"

[ -f "$DIR/out/BENCH_fig12.json" ] || fail "dispatched campaign wrote no BENCH_fig12.json"
cmp -s "$DIR/ref/BENCH_fig12.json" "$DIR/out/BENCH_fig12.json" \
	|| fail "chaos-fleet artifact differs from the single-process run"
cmp -s bench/BENCH_fig12.json "$DIR/out/BENCH_fig12.json" \
	|| fail "chaos-fleet artifact differs from the committed golden baseline"

# The chaos must actually have fired: each worker log carries the injected
# kill marker at least once, or the campaign finished before the pinned
# schedule could bite — which the seeds above make impossible for any
# campaign of more than a few shards per worker.
KILLS=$(cat "$DIR"/cordd-*.log 2>/dev/null | grep -c "chaos: killing worker" || true)
[ "${KILLS:-0}" -ge 1 ] || fail "no worker was ever chaos-killed; the schedule never fired"

echo "fleet-chaos-smoke: PASS ($KILLS injected worker kills survived; exit 0; artifacts byte-identical to single-process run and golden baseline)"
