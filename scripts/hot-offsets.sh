#!/usr/bin/env bash
# Prints where the hot functions of the engine, the detectors, the timing
# machine and the workload thread bodies sit in a Go binary: one "offset
# size name" line per function, sorted by name, where offset is the entry
# address modulo 64 (the function's place in a 64-byte instruction-fetch
# block) and size is its length in bytes.
#
# A change that grows or shrinks code linked before these packages (for
# instance internal/record) moves every hot function by 32 bytes modulo 64,
# and that alone moves the perfbench figures and detect workloads by 5-10 %.
# So before believing a gain or a loss under 10 % on those workloads, build
# the perfbench binary of both commits and compare:
#
#   (cd perfbench && go build -o ../.bench_build/pb-new .)
#   bash scripts/hot-offsets.sh .bench_build/pb-old > old.txt
#   bash scripts/hot-offsets.sh .bench_build/pb-new > new.txt
#   diff old.txt new.txt
#
# If offsets differ, pad a scratch build of one side (a never-taken
# println in a function linked before the hot code) until they match, and
# measure again. Equal offsets modulo 64 are not the whole story: a shift
# by a multiple of 64 bytes has still moved figures by a few percent, so
# the sturdier control pads the parent to the change's absolute addresses
# (go tool nm -sort address) and runs it as a third side. An optional second argument replaces the default symbol
# pattern (an extended regular expression matched against the name).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 <binary> [symbol-regexp]" >&2
	exit 2
fi
bin=$1
pattern=${2:-'^cord/internal/(sim\.\(\*(Engine|Env)\)\.|core\.\(\*Detector\)\.|baseline\.\(\*(Ideal|VecCache|FastTrack)\)\.(OnAccess|on|probe|stamp|new|flush)|machine\.\(\*(Machine\)\.(AccessCost|sharedRemotely)|hierarchy\)\.|resource\)\.acquire)|cache\.\(\*Cache\[.*\]\)\.(Lookup|Peek|Insert|Remove)|workload\.[A-Za-z0-9]+\.func[0-9]+$)'}

# go tool nm -size prints "address size type name" with a hex address; a
# generic symbol's name may contain spaces, so the name is everything after
# the third field. The offset needs only the address's last two hex digits.
go tool nm -size "$bin" | awk -v pat="$pattern" '
$3 == "T" {
	name = $0
	sub(/^ *[0-9a-f]+ +[0-9]+ +T +/, "", name)
	if (name !~ pat) next
	lo = substr($1, length($1) - 1)
	off = (index("0123456789abcdef", substr(lo, 1, 1)) - 1) * 16 + index("0123456789abcdef", substr(lo, 2, 1)) - 1
	printf "%2d %6d %s\n", off % 64, $2, name
}' | sort -k3
