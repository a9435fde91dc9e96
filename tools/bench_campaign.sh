#!/usr/bin/env bash
# Campaign fast-path benchmark (DESIGN.md §5h) — produces
# BENCH_campaign.json.
#
# Runs the same figure-sweep campaign three times and times each end
# to end. The sweep defaults to the full figure sweep — every
# memory-intensive trace under none + the Table III combos, at the
# default run lengths — because that is the campaign the fast path
# exists for; TRACES / COMBOS narrow it for smoke runs.
#
#   seed       the seed campaign engine's behaviour: warm sharing
#              off, and the eager 250k-cycle checkpoint cadence the
#              engine hard-coded before the wall-clock rate limit
#              existed (IPCP_CKPT_MIN_MS=0)
#   cold       this PR's defaults with an empty shared warm dir: rate-
#              limited checkpoints, every job simulates warmup once and
#              publishes its end-of-warmup state
#   warm       a fresh campaign over the now-populated warm dir: every
#              job fast-forwards past warmup (the steady state for
#              figure iteration and DSE sweeps)
#
# Asserts the §5h contract along the way: all three report.json files
# are byte-identical, the warm pass hits on every job, and the
# end-to-end speedup of warm over seed meets MIN_SPEEDUP (default 3).
#
# Env: BUILD_DIR (default build), OUT (default BENCH_campaign.json),
# TRACES, COMBOS, WORKERS, MIN_SPEEDUP, IPCP_SIM_INSTRS,
# IPCP_WARMUP_INSTRS.
set -euo pipefail

BUILD_DIR=${BUILD_DIR:-build}
CAMPAIGN_BIN=${CAMPAIGN_BIN:-$BUILD_DIR/tools/ipcp_campaign}
OUT=${OUT:-BENCH_campaign.json}
WORK_DIR=$(mktemp -d /tmp/ipcp_benchcamp_XXXXXX)
trap 'rm -rf "$WORK_DIR"' EXIT

# TRACES=0 sweeps every memory-intensive trace; an empty COMBOS uses
# the default combo list (none + Table III).
TRACES=${TRACES:-0}
COMBOS=${COMBOS:-}
# One worker per CPU: extra workers on a loaded/small box only add
# scheduler contention, which dilutes every pass equally but makes
# the wall clocks noisier.
WORKERS=${WORKERS:-$(nproc)}
MIN_SPEEDUP=${MIN_SPEEDUP:-3}
SIM=${IPCP_SIM_INSTRS:-1000000}
WARMUP=${IPCP_WARMUP_INSTRS:-100000}

say() { echo "[bench-campaign] $*" >&2; }
die() { say "FAIL: $*"; exit 1; }

[ -x "$CAMPAIGN_BIN" ] || die "missing $CAMPAIGN_BIN (build ipcp_campaign first)"

WARM_SHARED=$WORK_DIR/warmshared

# run_pass <name> <env...>  — times one full campaign, echoes seconds.
run_pass() {
    local name=$1
    shift
    local dir=$WORK_DIR/$name
    local submit_args=(--traces "$TRACES")
    [ -n "$COMBOS" ] && submit_args+=(--combos "$COMBOS")
    "$CAMPAIGN_BIN" submit "$dir" "${submit_args[@]}" >&2
    local start end
    start=$(date +%s.%N)
    env "$@" "$CAMPAIGN_BIN" run "$dir" --workers "$WORKERS" \
        --strict --no-progress >&2 || die "pass $name failed"
    end=$(date +%s.%N)
    echo "$start $end" | awk '{printf "%.3f", $2 - $1}'
}

say "sweep: traces=$([ "$TRACES" = 0 ] && echo all || echo "$TRACES")" \
    "combos={${COMBOS:-default}}, $WORKERS worker(s)," \
    "sim=$SIM warmup=$WARMUP"

say "pass 1/3: seed behaviour (warm off, eager checkpoints)"
SEED_S=$(run_pass seed IPCP_WARM=0 IPCP_CKPT_MIN_MS=0)
say "seed: ${SEED_S}s"

say "pass 2/3: fast path, cold warm dir (publishes warm states)"
COLD_S=$(run_pass cold IPCP_WARM_DIR="$WARM_SHARED")
say "cold: ${COLD_S}s"

say "pass 3/3: fast path, populated warm dir (steady state)"
WARM_S=$(run_pass warm IPCP_WARM_DIR="$WARM_SHARED")
say "warm: ${WARM_S}s"

# Byte-identity: sharing must never change a simulated result.
cmp "$WORK_DIR/seed/report.json" "$WORK_DIR/cold/report.json" \
    || die "cold report differs from seed report"
cmp "$WORK_DIR/seed/report.json" "$WORK_DIR/warm/report.json" \
    || die "warm report differs from seed report"

JOBS=$(grep -c '^job ' "$WORK_DIR/seed/manifest.txt")

python3 - "$WORK_DIR" "$OUT" "$JOBS" "$WORKERS" "$SIM" "$WARMUP" \
    "$SEED_S" "$COLD_S" "$WARM_S" "$MIN_SPEEDUP" <<'EOF'
import json, sys
(work, out, jobs, workers, sim, warmup,
 seed_s, cold_s, warm_s, min_speedup) = sys.argv[1:11]
jobs, workers = int(jobs), int(workers)
seed_s, cold_s, warm_s = float(seed_s), float(cold_s), float(warm_s)

warm_totals = json.load(open(work + "/warm/summary.json"))["totals"]
cold_totals = json.load(open(work + "/cold/summary.json"))["totals"]
assert warm_totals["warm_hits"] == jobs, warm_totals
assert warm_totals["done"] == jobs and cold_totals["done"] == jobs

speedup = seed_s / warm_s
doc = {
    "schema": "ipcp-bench-campaign-v1",
    "jobs": jobs,
    "workers": workers,
    "sim_instrs": int(sim),
    "warmup_instrs": int(warmup),
    "headline_speedup_vs_seed": round(speedup, 2),
    "entries": [
        {"name": "seed", "seconds": seed_s,
         "jobs_per_sec": round(jobs / seed_s, 2),
         "warm": False, "eager_ckpt": True},
        {"name": "cold", "seconds": cold_s,
         "jobs_per_sec": round(jobs / cold_s, 2),
         "warm_hits": cold_totals["warm_hits"],
         "warm_misses": cold_totals["warm_misses"],
         "speedup_vs_seed": round(seed_s / cold_s, 2)},
        {"name": "warm", "seconds": warm_s,
         "jobs_per_sec": round(jobs / warm_s, 2),
         "warm_hits": warm_totals["warm_hits"],
         "warm_misses": warm_totals["warm_misses"],
         "speedup_vs_seed": round(speedup, 2)},
    ],
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"[bench-campaign] wrote {out}: {speedup:.2f}x vs seed "
      f"(cold {seed_s / cold_s:.2f}x)", file=sys.stderr)
assert speedup >= float(min_speedup), \
    f"campaign speedup {speedup:.2f}x below the {min_speedup}x bar"
EOF

say "PASS: reports byte-identical, warm pass hit all $JOBS jobs"
