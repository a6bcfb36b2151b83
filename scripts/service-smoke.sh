#!/bin/sh
# End-to-end smoke test for the cordd service: build it, start it, exercise
# one detect session, one replay session, a streaming round-trip, and an
# online-detection stream (races surfacing in progress frames mid-upload,
# PROTOCOL.md §4.7) over real HTTP, then SIGTERM it and assert a clean
# drain. CI runs this; `make smoke-service` runs it locally.
#
# `sh scripts/service-smoke.sh stream` runs only the streaming legs
# (plus the one-shot detects they compare against) — `make stream-smoke`.
#
# Pure POSIX sh + curl + grep/sed: no test framework, no jq.
set -eu

MODE="${1:-all}"
case "$MODE" in
all | stream) ;;
*)
	echo "usage: $0 [stream]" >&2
	exit 2
	;;
esac

PORT="${CORDD_PORT:-18080}"
ADDR="127.0.0.1:$PORT"
DIR="$(mktemp -d)"
PID=""

cleanup() {
	if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
		kill -9 "$PID" 2>/dev/null || true
	fi
	rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
	echo "service-smoke: FAIL: $*" >&2
	if [ -f "$DIR/cordd.log" ]; then
		echo "--- cordd log ---" >&2
		cat "$DIR/cordd.log" >&2
	fi
	exit 1
}

echo "service-smoke: building cordd and cordreplay"
go build -o "$DIR/cordd" ./cmd/cordd
go build -o "$DIR/cordreplay" ./cmd/cordreplay

echo "service-smoke: starting cordd on $ADDR"
"$DIR/cordd" -addr "$ADDR" -workers 2 -queue 4 -timeout 60s -drain 30s \
	>"$DIR/cordd.log" 2>&1 &
PID=$!

# Wait for readiness: /healthz must answer 200 with status "ok".
i=0
until curl -sf "http://$ADDR/healthz" | grep -q '"status": "ok"'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && fail "server did not become healthy"
	kill -0 "$PID" 2>/dev/null || fail "cordd exited before becoming healthy"
	sleep 0.2
done
echo "service-smoke: healthy after $i polls"

# The recorded fixture both the replay and streaming sections use.
"$DIR/cordreplay" -app fft -seed 9 -log "$DIR/fft.cordlog" >/dev/null \
	|| fail "cordreplay could not record a log"

SESSIONS=0
if [ "$MODE" = "all" ]; then
	# One detect session: 2xx with a schema-versioned body naming the app.
	curl -sf -X POST "http://$ADDR/v1/detect" \
		-H 'Content-Type: application/json' \
		-d '{"app":"fft","seed":3,"threads":4,"inject":5}' \
		>"$DIR/detect.json" || fail "detect request did not return 2xx"
	grep -q '"schema": 2' "$DIR/detect.json" || fail "detect body missing schema stamp"
	grep -q '"app": "fft"' "$DIR/detect.json" || fail "detect body missing app echo"
	grep -q '"detectors"' "$DIR/detect.json" || fail "detect body missing detector verdicts"
	echo "service-smoke: detect session OK"

	# Replay the recorded log through the service: 2xx and a completed verdict.
	curl -sf -X POST "http://$ADDR/v1/replay?app=fft&seed=9&threads=4" \
		-H 'Content-Type: application/octet-stream' \
		--data-binary @"$DIR/fft.cordlog" \
		>"$DIR/replay.json" || fail "replay request did not return 2xx"
	grep -q '"schema": 2' "$DIR/replay.json" || fail "replay body missing schema stamp"
	grep -q '"completed": true' "$DIR/replay.json" || fail "replay did not complete"
	echo "service-smoke: replay session OK"
	SESSIONS=2
fi

# Streaming round-trip (PROTOCOL.md §4): push the same recorded log through
# /v1/stream in small chunks, assert the server's re-execution matched it,
# and check the embedded detect block byte-for-byte against a one-shot
# /v1/detect answer for the same run.
curl -sf -X POST "http://$ADDR/v1/detect" \
	-H 'Content-Type: application/json' \
	-d '{"app":"fft","seed":9,"threads":4}' \
	>"$DIR/detect9.json" || fail "one-shot detect (stream reference) did not return 2xx"
curl -sf -X POST "http://$ADDR/v1/stream?app=fft&seed=9&threads=4" \
	-H 'Content-Type: application/octet-stream' \
	-H 'Transfer-Encoding: chunked' \
	--data-binary @"$DIR/fft.cordlog" \
	>"$DIR/stream.json" || fail "stream request did not return 2xx"
grep -q '"schema": 2' "$DIR/stream.json" || fail "stream summary missing schema stamp"
grep -q '"verified": true' "$DIR/stream.json" || fail "stream summary not verified"
grep -q '"log_match": true' "$DIR/stream.json" || fail "streamed log did not match the re-execution"
grep -q '"shards"' "$DIR/stream.json" || fail "stream summary missing shard table"

# "detect" is the last field of the summary (PROTOCOL.md §4.5), so the block
# runs from its opening line to the line before the closing outer brace.
# De-indenting it one level must reproduce the one-shot body exactly.
sed -n '/^  "detect": {$/,$p' "$DIR/stream.json" | sed '$d' |
	sed -e '1s/.*/{/' -e '2,$s/^  //' >"$DIR/stream-detect.json"
cmp -s "$DIR/stream-detect.json" "$DIR/detect9.json" \
	|| fail "embedded detect block is not byte-identical to one-shot /v1/detect"
echo "service-smoke: streaming round-trip OK (log_match, detect block byte-identical)"
SESSIONS=$((SESSIONS + 1))

# Online detection (PROTOCOL.md §4.7): record a RACY fixture (one sync
# instance removed), stream it with detect=online while holding back the
# final 40 order records, and assert races surface in a progress frame
# while the tail is still unsent. The races shipped in frames must be a
# prefix of the one-shot answer's race list, and the end-of-stream detect
# block must again be byte-identical to the one-shot body.
"$DIR/cordreplay" -app fft -seed 1 -inject 2 -log "$DIR/racy.cordlog" >/dev/null \
	|| fail "cordreplay could not record the racy fixture"
curl -sf -X POST "http://$ADDR/v1/detect" \
	-H 'Content-Type: application/json' \
	-d '{"app":"fft","seed":1,"threads":4,"inject":2}' \
	>"$DIR/detect-racy.json" || fail "one-shot detect (online reference) did not return 2xx"
SESSIONS=$((SESSIONS + 1))

SIZE=$(wc -c <"$DIR/racy.cordlog")
HOLD=320 # the final 40 order records travel separately, after a pause
HEADN=$(((SIZE - 16 - HOLD) / 8))
TOTALN=$(((SIZE - 16) / 8))
FIFO="$DIR/online.fifo"
mkfifo "$FIFO"
curl -sfN -X POST "http://$ADDR/v1/stream?app=fft&seed=1&threads=4&inject=2&detect=online&duty=100&inject_thread=0&inject_nth=2" \
	-H 'Content-Type: application/octet-stream' \
	-T - <"$FIFO" >"$DIR/stream-online.json" &
CURL=$!
exec 3>"$FIFO"
dd if="$DIR/racy.cordlog" bs=1 count=$((SIZE - HOLD)) >&3 2>/dev/null
sleep 2 # let the server drain the head before the tail exists client-side
dd if="$DIR/racy.cordlog" bs=1 skip=$((SIZE - HOLD)) >&3 2>/dev/null
exec 3>&-
wait "$CURL" || fail "online stream request failed"

# Mid-stream proof: the first progress frame that carries races records how
# many order records had been ingested when it was emitted; that count must
# fit in the head, i.e. the races were reported while the tail was unsent.
MIDFRAMES=$(grep '"frame":"progress"' "$DIR/stream-online.json" |
	grep '"new_races":\["race @' | head -1 |
	sed 's/.*"frames":\([0-9]*\),.*/\1/')
[ -n "$MIDFRAMES" ] || fail "no progress frame carried races"
[ "$MIDFRAMES" -le "$HEADN" ] \
	|| fail "races surfaced only after the final chunk (frames=$MIDFRAMES of $TOTALN, head=$HEADN)"
echo "service-smoke: online races surfaced mid-stream (after $MIDFRAMES of $TOTALN records)"

grep -q '"duty": 100' "$DIR/stream-online.json" || fail "online summary missing duty"
grep -q '"coverage_pct": 100' "$DIR/stream-online.json" || fail "online coverage below 100% at duty=100"
grep -q '"completed": true' "$DIR/stream-online.json" || fail "online replay did not complete"
grep -q '"log_match": true' "$DIR/stream-online.json" || fail "online-streamed log did not match the re-execution"

# Prefix property: concatenating every frame's new_races, in order, must
# reproduce the head of the one-shot race list.
grep '"frame":"progress"' "$DIR/stream-online.json" |
	sed -n 's/.*"new_races":\[//p' | sed 's/\].*//' | tr ',' '\n' |
	sed 's/^"//;s/"$//' | grep . >"$DIR/frame-races.txt" || true
[ -s "$DIR/frame-races.txt" ] || fail "progress frames shipped no races"
sed -n '/^  "races": \[$/,/^  \]$/p' "$DIR/detect-racy.json" |
	sed '1d;$d' | sed 's/^    "//;s/",*$//' >"$DIR/detect-races.txt"
head -n "$(wc -l <"$DIR/frame-races.txt")" "$DIR/detect-races.txt" |
	cmp -s - "$DIR/frame-races.txt" \
	|| fail "mid-stream races are not a prefix of the one-shot race list"

# The summary document starts at the first line that is exactly "{" (frames
# are compact single lines); its detect block must match the one-shot body.
sed -n '/^{$/,$p' "$DIR/stream-online.json" >"$DIR/online-summary.json"
sed -n '/^  "detect": {$/,$p' "$DIR/online-summary.json" | sed '$d' |
	sed -e '1s/.*/{/' -e '2,$s/^  //' >"$DIR/online-detect.json"
cmp -s "$DIR/online-detect.json" "$DIR/detect-racy.json" \
	|| fail "online detect block is not byte-identical to one-shot /v1/detect"
echo "service-smoke: online leg OK (races prefix, detect block byte-identical)"

# Metrics must show every completed one-shot session, both streams, and the
# online session's counters.
curl -sf "http://$ADDR/metrics" >"$DIR/metrics.json" || fail "metrics not served"
grep -q "\"completed\": $SESSIONS" "$DIR/metrics.json" \
	|| fail "metrics do not show $SESSIONS completed sessions"
grep -q '"streams"' "$DIR/metrics.json" || fail "metrics missing streams block"
grep -q '"frames_ingested"' "$DIR/metrics.json" || fail "metrics missing frames_ingested"
grep -q '"online_sessions": 1' "$DIR/metrics.json" || fail "metrics do not show the online session"
if grep -q '"online_races": 0,' "$DIR/metrics.json"; then
	fail "metrics show zero online races"
fi
grep -q '"online_divergences": 0' "$DIR/metrics.json" || fail "metrics show online divergences"
echo "service-smoke: metrics OK"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=""
[ "$status" -eq 0 ] || fail "cordd exited $status on SIGTERM (want clean drain, exit 0)"
grep -q "drained cleanly" "$DIR/cordd.log" || fail "cordd log missing drain confirmation"
echo "service-smoke: PASS (clean drain)"
