#!/usr/bin/env bash
# Executable-line coverage of src/, per module, with gcov alone.
#
# Builds a Debug `--coverage` tree in BUILD_DIR, runs the 18 paper
# benches (every bench_* but the microbenchmark and the throughput
# bench) at IPCP_SIM_INSTRS=20000 and prints one table; then runs
# tier-1 (ctest) on top and prints it again. A line counts as covered
# when any translation unit executed it, so a header's inline code is
# counted once.
#
#   tools/coverage.sh BUILD_DIR
set -euo pipefail

BUILD_DIR=${1:?usage: tools/coverage.sh BUILD_DIR}
REPO=$(cd "$(dirname "$0")/.." && pwd)

mkdir -p "$BUILD_DIR"
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
LOG="$BUILD_DIR/coverage-build.log"
if ! { cmake -B "$BUILD_DIR" -S "$REPO" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic" \
        -DCMAKE_EXE_LINKER_FLAGS=--coverage &&
    cmake --build "$BUILD_DIR" -j "$(nproc)"; } >"$LOG" 2>&1; then
    tail -n 20 "$LOG" >&2
    echo "coverage build failed; see $LOG" >&2
    exit 1
fi
find "$BUILD_DIR" -name '*.gcda' -delete

# Union of every object's line records for files under src/, summed
# per module (the directory below src/). Objects are listed by their
# .gcno, so code that never ran (no .gcda) still counts as lines.
report() {
    echo "== $1"
    find "$BUILD_DIR" -name '*.gcno' -print0 |
        (cd "$BUILD_DIR" && xargs -0 gcov --stdout --json-format 2>/dev/null) |
        python3 -c '
import json, sys
src = sys.argv[1] + "/src/"
lines = {}  # (file, line) -> executed
for doc in sys.stdin:
    doc = doc.strip()
    if not doc:
        continue
    for f in json.loads(doc)["files"]:
        name = f["file"]
        if not name.startswith(src):
            continue
        for l in f["lines"]:
            key = (name[len(src):], l["line_number"])
            lines[key] = lines.get(key, False) or l["count"] > 0
mods = {}
for (name, _), hit in lines.items():
    m = mods.setdefault(name.split("/")[0], [0, 0])
    m[0] += hit
    m[1] += 1
total = [sum(v[0] for v in mods.values()), sum(v[1] for v in mods.values())]
print("%-12s%9s%8s%8s" % ("module", "covered", "lines", "pct"))
for name, (hit, n) in sorted(mods.items()) + [("src/", total)]:
    print("%-12s%9d%8d%7.1f%%" % (name, hit, n, 100.0 * hit / n))
' "$REPO"
}

WORK="$BUILD_DIR/coverage-work"
rm -rf "$WORK"
mkdir -p "$WORK"
for bench in "$BUILD_DIR"/bench/bench_*; do
    case "$(basename "$bench")" in
    *.* | bench_micro_prefetchers | bench_throughput) continue ;;
    esac
    (cd "$WORK" && IPCP_SIM_INSTRS=20000 "$bench" >/dev/null 2>&1) ||
        echo "warning: $(basename "$bench") exited nonzero" >&2
done
report "paper benches at IPCP_SIM_INSTRS=20000"

ctest --test-dir "$BUILD_DIR" -j "$(nproc)" >/dev/null ||
    echo "warning: tier-1 had failures" >&2
report "paper benches + tier-1"
