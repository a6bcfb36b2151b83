#!/bin/sh
# Start a local cordd fleet for distributed-campaign experiments (see
# EXPERIMENTS.md, "Running a distributed campaign"): N workers on
# consecutive ports, each with a small pool, all draining cleanly on
# Ctrl-C. Prints the -workers value to paste into cordbench.
#
# With CORD_FLEET_REGISTRY=1 the first process is a registry instead of a
# worker and the others register against it (PROTOCOL.md §7); the printed
# cordbench line then uses -registry, and workers that come and go are
# picked up by the coordinator mid-campaign.
#
# Usage: sh scripts/fleet.sh [workers]   (default 3; `make fleet`)
# Ports start at CORD_FLEET_PORT (default 18180).
set -eu

. "$(dirname "$0")/fleet-lib.sh"

N="${1:-3}"
BASE="${CORD_FLEET_PORT:-18180}"
DIR="$(mktemp -d)"
fleet_trap_cleanup

echo "fleet: building cordd"
go build -o "$DIR/cordd" ./cmd/cordd

REGISTRY=""
if [ "${CORD_FLEET_REGISTRY:-0}" = "1" ]; then
	REGISTRY="http://127.0.0.1:$BASE"
	"$DIR/cordd" -addr "127.0.0.1:$BASE" \
		>"$DIR/cordd-registry.log" 2>&1 &
	PIDS="$PIDS $!"
	fleet_wait_healthy "$REGISTRY"
	echo "fleet: registry up at $REGISTRY"
fi

# Workers sit after the registry (if any) on the port line.
OFFSET=0
if [ -n "$REGISTRY" ]; then OFFSET=1; fi

URLS=""
i=0
while [ "$i" -lt "$N" ]; do
	port=$((BASE + OFFSET + i))
	"$DIR/cordd" -addr "127.0.0.1:$port" -workers 2 -queue 16 \
		${REGISTRY:+-register "$REGISTRY"} \
		>"$DIR/cordd-$port.log" 2>&1 &
	PIDS="$PIDS $!"
	URLS="${URLS:+$URLS,}http://127.0.0.1:$port"
	i=$((i + 1))
done

for url in $(echo "$URLS" | tr ',' ' '); do
	fleet_wait_healthy "$url"
done

if [ -n "$REGISTRY" ]; then
	fleet_wait_registered "$REGISTRY" "$N"
	echo "fleet: $N workers registered. Dispatch a campaign with:"
	echo "  go run ./cmd/cordbench -fig12 -registry $REGISTRY"
else
	echo "fleet: $N workers up. Dispatch a campaign with:"
	echo "  go run ./cmd/cordbench -fig12 -workers $URLS"
fi
echo "fleet: Ctrl-C to drain and stop."
wait
