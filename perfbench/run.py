#!/usr/bin/env python3
"""Build and run the IPCP layer benchmark.

One run (the form the benchmark contract uses), from the repository root:

    python3 perfbench/run.py --workload sim-1core --seed 1 --seconds 30 --trace 0

builds the simulator and the driver from source into .bench_build/perfbench
(the first run compiles for about a minute), runs one workload for the given
wall-clock budget and prints one JSON result line last on stdout.

Steadiness mode runs a workload N times, one seed each, and prints the median,
quartiles and IQR/median of every metric next to the bound in BENCHMARK.json:

    python3 perfbench/run.py --workload dse-search --steady 10 [--seed 1]

Self-tests of the driver's arithmetic and digests:

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD_DIR = REPO / ".bench_build" / "perfbench"
WORK_DIR = REPO / ".bench_work"
WORKLOADS = ("sim-1core", "mix-4core", "dse-search")
# A run must end within 180 s; the driver's own budget is --seconds plus
# its set-up and probes, so this only stops a hung run.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def clean_env():
    """The environment minus every IPCP_* knob (IPCP_FAULTS included), so a
    variable left set in the shell cannot change what is measured."""
    scrubbed = sorted(k for k in os.environ if k.startswith("IPCP_"))
    if scrubbed:
        log(f"scrubbed environment: {' '.join(scrubbed)}")
    return {k: v for k, v in os.environ.items() if not k.startswith("IPCP_")}


def build(targets):
    """Configure once, then bring `targets` up to date."""
    if not any((REPO / "src").glob("*/*.cc")):
        log(f"no simulator sources under {REPO / 'src'}; cannot build")
        return False
    if not shutil.which("cmake"):
        log("cmake not found")
        return False
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
           "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_child(cmd, env):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (the driver forks search processes) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, ""
    return proc.returncode, out


def run_once(workload, seed, seconds, trace, env):
    """One driver run; returns (exit code, parsed result or None)."""
    WORK_DIR.mkdir(exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(WORK_DIR)]
    code, out = run_child(cmd, env)
    try:
        WORK_DIR.rmdir()  # only when empty: concurrent runs keep theirs
    except OSError:
        pass
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return code or 1, None
    return 0, lines[-1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args, env):
    """Run one workload --steady times, one seed each, and report spreads."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, bad = {}, 0
    for i in range(args.steady):
        seed = args.seed + i
        code, line = run_once(args.workload, seed, seconds, args.trace, env)
        if line is None:
            log(f"seed {seed}: run failed (exit {code})")
            bad += 1
            continue
        res = json.loads(line)
        if not res["correct"] or res["failed"]:
            bad += 1
        log(f"seed {seed}: correct={res['correct']} attempted="
            f"{res['attempted']} failed={res['failed']} " +
            " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                     if k in bounds))
        for k, v in res["metrics"].items():
            values.setdefault(k, (v["unit"], []))[1].append(v["value"])
    print(f"{args.workload}: {args.steady} runs of {seconds} s, seeds "
          f"{args.seed}..{args.seed + args.steady - 1}, failed runs {bad}")
    print(f"{'metric':40} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}  note")
    for name, (unit, vals) in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None and name != "setup_s":
            note = "ok" if spread < bound / 3 else "WIDE (>= bound/3)"
        print(f"{name:40} {unit:9} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}  {note}")
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run N seeds and print each metric's spread")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    env = clean_env()

    if args.self_test:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.run([str(BUILD_DIR / "perfbench_tests")],
                              env=env).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build(["perfbench_driver"]):
        log("build failed")
        return 1
    if args.steady:
        return steady(args, env)
    if args.seconds is None:
        ap.error("--seconds is required")
    code, line = run_once(args.workload, args.seed, args.seconds, args.trace,
                          env)
    if line is None:
        return code
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
