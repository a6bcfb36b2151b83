#!/bin/sh
# End-to-end crash-recovery smoke test for checkpointed campaigns: run the
# golden campaign to completion for reference, kill -9 a live checkpointed
# run mid-campaign, resume it, and assert the resumed artifacts are
# byte-identical to the uninterrupted ones. Also exercises the SIGTERM
# drain (exit 3 + resumable hint) and a deterministic crash: CORD_CHAOS
# crash-after=5 kills a checkpointed campaign after its fifth run (exit 42),
# and its resume must match the uninterrupted artifacts too. Unlike the
# kill -9 leg, that one does not depend on timing.
#
# Pure POSIX sh: no test framework, no jq. CI runs this; `make resume-smoke`
# runs it locally.
set -eu

DIR="$(mktemp -d)"
PID=""
FLAGS="-all -injections 8 -q"
JOURNAL_HEADER=12 # magic + version; anything larger holds journaled runs

cleanup() {
	if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
		kill -9 "$PID" 2>/dev/null || true
	fi
	rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
	echo "resume-smoke: FAIL: $*" >&2
	for log in run.log resume.log term.log crash.log crash-resume.log; do
		if [ -s "$DIR/$log" ]; then
			echo "--- $log ---" >&2
			cat "$DIR/$log" >&2
		fi
	done
	exit 1
}

# Poll until the journal at $1 holds at least one record, failing if the
# process $2 exits first.
wait_for_journal() {
	i=0
	while :; do
		if [ -f "$1" ]; then size=$(wc -c <"$1"); else size=0; fi
		[ "$size" -gt "$JOURNAL_HEADER" ] && return 0
		kill -0 "$2" 2>/dev/null || fail "campaign exited before journaling anything"
		i=$((i + 1))
		[ "$i" -ge 300 ] && fail "journal never grew past its header"
		sleep 0.1
	done
}

echo "resume-smoke: building cordbench"
go build -o "$DIR/cordbench" ./cmd/cordbench

echo "resume-smoke: reference run (uninterrupted)"
"$DIR/cordbench" $FLAGS -json "$DIR/ref" >/dev/null 2>"$DIR/run.log" \
	|| fail "reference campaign failed"

echo "resume-smoke: starting checkpointed run, then kill -9 mid-campaign"
"$DIR/cordbench" $FLAGS -checkpoint "$DIR/ck" -json "$DIR/out" \
	>/dev/null 2>"$DIR/run.log" &
PID=$!
wait_for_journal "$DIR/ck/journal.cordckpt" "$PID"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
[ -d "$DIR/out" ] && [ -n "$(ls "$DIR/out" 2>/dev/null)" ] \
	&& fail "killed campaign wrote artifacts; the kill came too late to test recovery"
echo "resume-smoke: killed with $(wc -c <"$DIR/ck/journal.cordckpt") journal bytes on disk"

echo "resume-smoke: a re-run without -resume must refuse (exit 2)"
status=0
"$DIR/cordbench" $FLAGS -checkpoint "$DIR/ck" -json "$DIR/out" \
	>/dev/null 2>"$DIR/resume.log" || status=$?
[ "$status" -eq 2 ] || fail "re-run without -resume exited $status, want 2"

echo "resume-smoke: resuming"
"$DIR/cordbench" $FLAGS -checkpoint "$DIR/ck" -resume -json "$DIR/out" \
	>/dev/null 2>"$DIR/resume.log" || fail "resumed campaign failed"

n=0
for ref in "$DIR"/ref/BENCH_*.json; do
	out="$DIR/out/$(basename "$ref")"
	[ -f "$out" ] || fail "resumed run did not write $(basename "$ref")"
	cmp -s "$ref" "$out" || fail "$(basename "$ref") differs between resumed and uninterrupted runs"
	n=$((n + 1))
done
[ "$n" -gt 0 ] || fail "reference run produced no artifacts"
echo "resume-smoke: all $n resumed artifacts byte-identical to the uninterrupted run"

echo "resume-smoke: SIGTERM must drain and exit resumable (status 3)"
"$DIR/cordbench" $FLAGS -checkpoint "$DIR/ck-term" -json "$DIR/out-term" \
	>/dev/null 2>"$DIR/term.log" &
PID=$!
wait_for_journal "$DIR/ck-term/journal.cordckpt" "$PID"
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=""
[ "$status" -eq 3 ] || fail "SIGTERM run exited $status, want 3 (resumable)"
grep -q '\-resume' "$DIR/term.log" || fail "SIGTERM run did not print the resume hint"

echo "resume-smoke: CORD_CHAOS crash-after=5 must kill a checkpointed run (exit 42)"
status=0
CORD_CHAOS="crash-after=5,seed=7" "$DIR/cordbench" $FLAGS -checkpoint "$DIR/ck-crash" \
	>/dev/null 2>"$DIR/crash.log" || status=$?
[ "$status" -eq 42 ] || fail "crash-after=5 run exited $status, want 42 (chaos.CrashExitCode)"

echo "resume-smoke: resuming the crashed run"
"$DIR/cordbench" $FLAGS -checkpoint "$DIR/ck-crash" -resume -json "$DIR/out-crash" \
	>/dev/null 2>"$DIR/crash-resume.log" || fail "resuming the crashed campaign failed"
for ref in "$DIR"/ref/BENCH_*.json; do
	out="$DIR/out-crash/$(basename "$ref")"
	[ -f "$out" ] || fail "crash resume did not write $(basename "$ref")"
	cmp -s "$ref" "$out" || fail "$(basename "$ref") differs between crash-resumed and uninterrupted runs"
done
echo "resume-smoke: PASS (kill -9 and crash-after recovery byte-identical; SIGTERM resumable)"
