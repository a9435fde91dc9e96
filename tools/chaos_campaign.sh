#!/usr/bin/env bash
# Chaos test for the sharded campaign engine (DESIGN.md §5g).
#
# Runs the same >=64-job sweep (plus one poison job) twice:
#
#   serial   1 worker, undisturbed — the reference report
#   chaos    4 workers, two of them SIGKILLed mid-run with a short
#            lease TTL and frequent checkpoints, so survivors must
#            reclaim the orphaned leases and resume the dead owners'
#            periodic checkpoints
#
# and then asserts the crash-tolerance contract:
#
#   * the chaos supervisor exits 0 (every job done or quarantined)
#   * report.json is byte-identical to the serial reference
#   * summary.json records at least one checkpoint resume
#   * exactly one job (the poison one) is quarantined, with history
#   * the queue holds no leases, staging files or reclaim corpses
#   * one stats artifact per done job — no duplicates, no strays
#
# Whether a SIGKILL lands mid-job is timing-dependent, so the chaos
# run is retried (fresh directory) up to 3 times until a resume is
# observed; every attempt must still match the reference byte for
# byte. Warm-state sharing (DESIGN.md §5h) is on throughout, so the
# kills also land around warm-state publishes.
#
# A final warm-corruption pass then attacks the §5h store directly:
# campaign A populates a shared warm dir; every published warm state
# is truncated / zeroed / replaced with garbage (the worst torn file
# a SIGKILL mid-publish could conceivably leave, plus a stray .tmp);
# campaign B over the vandalized dir must heal every file to a miss,
# republish, and still emit a byte-identical report; campaign C then
# warm-hits everything, proving the heal→republish→hit cycle.
#
# Env: BUILD_DIR (default build), TRACES, COMBOS, IPCP_SIM_INSTRS,
# IPCP_WARMUP_INSTRS override the sweep shape.
set -euo pipefail

BUILD_DIR=${BUILD_DIR:-build}
CAMPAIGN_BIN=${CAMPAIGN_BIN:-$BUILD_DIR/tools/ipcp_campaign}
WORK_DIR=$(mktemp -d /tmp/ipcp_chaos_XXXXXX)
trap 'umount "$WORK_DIR/warmsmall" 2>/dev/null || true; rm -rf "$WORK_DIR"' EXIT

# Short jobs: the sweep's point is fleet behaviour, not fidelity.
export IPCP_SIM_INSTRS=${IPCP_SIM_INSTRS:-50000}
export IPCP_WARMUP_INSTRS=${IPCP_WARMUP_INSTRS:-10000}
# Jobs this short finish inside the campaign default 500 ms wall-clock
# checkpoint rate limit; pin it off so cycle-cadence checkpoints (and
# therefore kill-and-resume coverage) actually happen.
export IPCP_CKPT_MIN_MS=0
TRACES=${TRACES:-32}
COMBOS=${COMBOS:-none,ipcp}

# Log to stderr: chaos_attempt's stdout is captured for the resume
# count.
say() { echo "[chaos] $*" >&2; }
die() { say "FAIL: $*"; exit 1; }

[ -x "$CAMPAIGN_BIN" ] || die "missing $CAMPAIGN_BIN (build ipcp_campaign first)"

# ---- serial reference ----
SERIAL=$WORK_DIR/serial
"$CAMPAIGN_BIN" submit "$SERIAL" --traces "$TRACES" --combos "$COMBOS"
echo "job no.such_trace-0B ipcp" >> "$SERIAL/manifest.txt"
JOBS=$(grep -c '^job ' "$SERIAL/manifest.txt")
[ "$JOBS" -ge 64 ] || die "need >=64 jobs, manifest has $JOBS"

say "serial reference: $JOBS jobs, 1 worker, undisturbed"
"$CAMPAIGN_BIN" run "$SERIAL" --workers 1 --no-progress \
    || die "serial reference run failed"
[ -s "$SERIAL/report.json" ] || die "serial run wrote no report"

# ---- one chaos attempt: 4 workers, SIGKILL two mid-run ----
chaos_attempt() {
    local dir=$1
    mkdir -p "$dir"
    cp "$SERIAL/manifest.txt" "$dir/manifest.txt"
    env IPCP_LEASE_TTL=2 IPCP_CKPT_EVERY=5000 \
        "$CAMPAIGN_BIN" run "$dir" --workers 4 --respawn 16 \
        --no-progress &
    local supervisor=$!
    local killed=0
    for delay in 1 2; do
        sleep "$delay"
        local victim
        victim=$(pgrep -f "ipcp_sim --worker $dir" | head -n 1 || true)
        if [ -n "$victim" ]; then
            say "SIGKILL worker pid $victim"
            kill -9 "$victim" 2>/dev/null && killed=$((killed + 1))
        fi
    done
    say "killed $killed worker(s) mid-run"
    wait "$supervisor" || die "chaos supervisor exited nonzero"

    cmp "$SERIAL/report.json" "$dir/report.json" \
        || die "chaos report.json differs from the serial reference"

    python3 - "$dir/summary.json" "$JOBS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
jobs = int(sys.argv[2])
t = doc["totals"]
assert t["jobs"] == jobs, (t["jobs"], jobs)
assert t["incomplete"] == 0, t
assert t["done"] == jobs - 1, t
assert t["quarantined"] == 1, t
quarantined = [j for j in doc["jobs"] if j["status"] == "quarantined"]
assert len(quarantined) == 1 and quarantined[0]["trace"] == "no.such_trace-0B"
assert any("unknown trace" in line for line in quarantined[0]["history"])
EOF

    # Queue hygiene: terminal markers for every job, zero litter.
    local terminal
    terminal=$(find "$dir/queue" \( -name 'done-*' -o -name 'quarantine-*' \) | wc -l)
    [ "$terminal" -eq "$JOBS" ] || die "expected $JOBS terminal markers, found $terminal"
    # (attempts-* files stay on purpose: the history of jobs whose
    # attempts did not all go cleanly, read into summary.json.)
    local litter
    litter=$(find "$dir/queue" \( -name 'lease-*' -o -name '.tmp-*' -o -name 'rip-*' \) | wc -l)
    [ "$litter" -eq 0 ] || die "queue litter left behind: $(ls "$dir/queue")"

    # One stats artifact per done job; names are key hashes, so any
    # duplicate or stray shows up as a count mismatch.
    local stats done_count
    stats=$(find "$dir/stats" -name 'stats-*.json' | wc -l)
    done_count=$((JOBS - 1))
    [ "$stats" -eq "$done_count" ] \
        || die "expected $done_count stats artifacts, found $stats"

    python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["totals"]["resumes"])' "$dir/summary.json"
}

# ---- retry until a SIGKILL provably interrupted a checkpointed job ----
RECOVERED=0
for attempt in 1 2 3; do
    say "chaos attempt $attempt: 4 workers, TTL=2s, ckpt every 5k cycles"
    RESUMES=$(chaos_attempt "$WORK_DIR/chaos$attempt" | tail -n 1)
    say "attempt $attempt: resumes=$RESUMES (report byte-identical)"
    if [ "$RESUMES" -ge 1 ]; then
        say "kill-and-recover verified (resumes=$RESUMES)"
        RECOVERED=1
        break
    fi
done
[ "$RECOVERED" -eq 1 ] || die "no checkpoint resume observed in 3 chaos attempts"

# ---- warm-state corruption pass (DESIGN.md §5h) ----
# Campaign A populates a shared warm dir; every warm state is then
# vandalized the way a SIGKILL mid-publish could at worst leave it;
# campaign B must heal each to a miss and still match byte for byte;
# campaign C over the repaired dir must warm-hit every job.
WARM_SHARED=$WORK_DIR/warmshared

warm_pass() {
    # warm_pass <root> <expected-warm-hits> <expected-warm-misses>
    # Pass A's report is the byte-identity reference for B and C:
    # healing and warm-starting must never change a simulated byte.
    local dir=$1 hits=$2 misses=$3
    "$CAMPAIGN_BIN" submit "$dir" --traces "$TRACES" --combos "$COMBOS"
    env IPCP_WARM_DIR="$WARM_SHARED" \
        "$CAMPAIGN_BIN" run "$dir" --workers 2 --no-progress \
        || die "warm pass $dir failed"
    cmp "$WORK_DIR/warmA/report.json" "$dir/report.json" \
        || die "warm pass $dir report differs from pass A"
    python3 - "$dir/summary.json" "$hits" "$misses" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))["totals"]
hits, misses = int(sys.argv[2]), int(sys.argv[3])
assert t["incomplete"] == 0 and t["quarantined"] == 0, t
assert t["warm_hits"] == hits, (t["warm_hits"], hits)
assert t["warm_misses"] == misses, (t["warm_misses"], misses)
EOF
}

WARM_JOBS=$((JOBS - 1))  # the warm sweeps carry no poison job

say "warm pass A: populate $WARM_SHARED ($WARM_JOBS jobs, all misses)"
warm_pass "$WORK_DIR/warmA" 0 "$WARM_JOBS"
WARM_FILES=$(find "$WARM_SHARED" -name 'warm-*.ckpt' | wc -l)
[ "$WARM_FILES" -ge 1 ] || die "warm pass A published no warm states"

say "vandalizing $WARM_FILES warm state(s): truncate/zero/garbage + stray tmp"
i=0
for f in "$WARM_SHARED"/warm-*.ckpt; do
    case $((i % 3)) in
    0) truncate -s $(($(stat -c %s "$f") / 2)) "$f" ;;  # torn tail
    1) : > "$f" ;;                                      # zero bytes
    2) echo "not a checkpoint container" > "$f" ;;      # garbage
    esac
    i=$((i + 1))
done
echo "stray" > "$WARM_SHARED/warm-deadbeef.ckpt.tmp"  # mid-rename corpse

say "warm pass B: every vandalized state must heal to a miss"
warm_pass "$WORK_DIR/warmB" 0 "$WARM_JOBS"

say "warm pass C: the republished states must all hit"
warm_pass "$WORK_DIR/warmC" "$WARM_JOBS" 0

# ---- resource-exhaustion pass (DESIGN.md §5i) ----
# The same sweep on a filesystem too small for its warm states must
# *complete*: every publish that cannot land degrades to an in-memory
# pass-through (counted in summary.json), and report.json stays
# byte-identical to the undisturbed serial reference — degradation is
# observable but never changes a simulated byte.
#
# Preferred mode mounts a tiny tmpfs over the warm dir and fills it
# with ballast so publishes hit real ENOSPC; without mount privileges
# the *.nospace fault points emulate the full disk instead.
ENOSPC_DIR=$WORK_DIR/enospc
WARM_SMALL=$WORK_DIR/warmsmall
mkdir -p "$ENOSPC_DIR" "$WARM_SMALL"
cp "$SERIAL/manifest.txt" "$ENOSPC_DIR/manifest.txt"

# CHAOS_NO_MOUNT=1 forces the fault-injection mode even where tmpfs
# mounts would work (used to exercise the unprivileged-CI path).
ENOSPC_MODE=faults
ENOSPC_FAULTS='warm.nospace@1+,ckpt.nospace@1+'
if [ "${CHAOS_NO_MOUNT:-0}" = 0 ] && [ "$(id -u)" -eq 0 ] \
    && mount -t tmpfs -o size=1M tmpfs "$WARM_SMALL" 2>/dev/null; then
    ENOSPC_MODE=tmpfs
    ENOSPC_FAULTS=''
fi

if [ "$ENOSPC_MODE" = tmpfs ]; then
    # Fill every remaining block so each real publish hits ENOSPC.
    dd if=/dev/zero of="$WARM_SMALL/ballast" bs=1024 2>/dev/null || true
fi

say "ENOSPC pass ($ENOSPC_MODE): warm dir full, ckpt writes failing"
env IPCP_FAULTS="$ENOSPC_FAULTS" IPCP_CKPT_EVERY=5000 \
    IPCP_WARM_DIR="$WARM_SMALL" \
    "$CAMPAIGN_BIN" run "$ENOSPC_DIR" --workers 2 --no-progress \
    || die "ENOSPC campaign did not complete cleanly"

cmp "$SERIAL/report.json" "$ENOSPC_DIR/report.json" \
    || die "degraded report.json differs from the serial reference"

python3 - "$ENOSPC_DIR/summary.json" "$JOBS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
jobs = int(sys.argv[2])
t = doc["totals"]
assert t["jobs"] == jobs and t["incomplete"] == 0, t
assert t["done"] == jobs - 1 and t["quarantined"] == 1, t
degraded = (t["degraded_store_writes"] + t["degraded_warm_writes"] +
            t["degraded_ckpt_writes"] + t["degraded_stats_writes"])
assert degraded > 0, t
EOF
say "ENOSPC pass: report byte-identical, degradation observed"

# ---- stall-watchdog pass (DESIGN.md §5i) ----
# A worker wedged in an infinite loop inside a claimed job — heartbeat
# thread still renewing the lease, progress epoch frozen — must be
# detected by the supervisor within --stall-timeout plus one scan,
# SIGKILLed, and its job quarantined; the respawned fleet then drives
# the rest of the sweep to completion. worker.wedge@3 wedges each
# worker process on its third claimed job, so every respawn makes
# progress before wedging again and the campaign still terminates.
STALL_DIR=$WORK_DIR/stall
"$CAMPAIGN_BIN" submit "$STALL_DIR" --traces 4 --combos "$COMBOS"
STALL_JOBS=$(grep -c '^job ' "$STALL_DIR/manifest.txt")
STALL_LOG=$WORK_DIR/stall.log

say "stall pass: $STALL_JOBS jobs, workers wedging on their 3rd claim, 2s watchdog"
# TTL 3s: the heartbeat refreshes the pulse (with a fresh epoch)
# every TTL/3 = 1s, so a healthy-but-slow job can never look frozen
# past the 2s watchdog — only a genuinely wedged epoch can.
env IPCP_FAULTS='worker.wedge@3' IPCP_LEASE_TTL=3 \
    "$CAMPAIGN_BIN" run "$STALL_DIR" --workers 1 --respawn 8 \
    --stall-timeout 2 --no-progress 2> "$STALL_LOG" \
    || { cat "$STALL_LOG" >&2; die "stall campaign exited nonzero"; }

grep -q "stalled on" "$STALL_LOG" \
    || die "supervisor never reported a stalled worker"
python3 - "$STALL_DIR/summary.json" "$STALL_JOBS" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
jobs = int(sys.argv[2])
t = doc["totals"]
assert t["done"] + t["quarantined"] == jobs and t["incomplete"] == 0, t
assert t["quarantined"] >= 1 and t["done"] >= 1, t
wedged = [j for j in doc["jobs"] if j["status"] == "quarantined"]
assert any("stalled worker killed by supervisor watchdog" in line
           for j in wedged for line in j["history"]), wedged
EOF
say "stall pass: wedged worker killed, job quarantined, sweep completed"

say "PASS: kill-and-recover + warm-state self-healing + resource exhaustion verified"
exit 0
