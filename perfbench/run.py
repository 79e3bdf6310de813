#!/usr/bin/env python3
"""End-to-end benchmark of setsketch: builds perfbench from this checkout's
sources and runs one workload in its own process.

Run from the root of the checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steadiness 10 [--workload NAME|all] [--seconds S]
  python3 perfbench/run.py --write-config      # regenerate BENCHMARK.json

A single run prints a table, then as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run runs the
workload twice, untraced then traced, and reports the difference as
trace.overhead_pct. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SCRATCH = os.path.join(".bench_build", "scratch")
TRACES = os.path.join(".bench_build", "traces")
CONFIG = "BENCHMARK.json"
RUN_SECONDS = 30
RUN_BUDGET_S = 170  # A run must end within 180 s once built.


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_process(argv, timeout, capture=True):
    """Runs argv in its own process group; kills the group on timeout and
    always waits for it to end."""
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=subprocess.PIPE if capture else sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[0]} timed out after {timeout:.0f} s")
    return proc.returncode, out or "", err or ""


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no src/CMakeLists.txt here: run from the root of "
                         "a setsketch checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _, err = run_process(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        if code != 0:
            raise BenchError("cmake configure failed:\n" + err[-4000:])
    code, out, err = run_process(
        ["cmake", "--build", BUILD_DIR, "-j", jobs], timeout=850)
    if code != 0 or not os.path.isfile(BINARY):
        raise BenchError("build failed:\n" + (out + err)[-4000:])


def describe():
    code, out, err = run_process([BINARY, "--describe"], timeout=30)
    if code != 0:
        raise BenchError("perfbench --describe failed: " + err)
    return json.loads(out.strip().splitlines()[-1])


def run_binary(workload, seed, seconds, trace, timeout):
    scratch = os.path.join(SCRATCH, f"{workload}-{os.getpid()}-{trace}")
    argv = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", scratch]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        argv += ["--spans",
                 os.path.join(TRACES, f"{workload}-seed{seed}.jsonl")]
    try:
        code, out, err = run_process(argv, timeout=timeout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"perfbench exited with {code}")
    return json.loads(lines[-1])


def cpu_ticks():
    """Host-wide CPU tick counters (/proc/stat), or None where absent."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests, in %."""
    if not before or not after or len(before) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / max(1, sum(delta))


def overhead_pct(untraced, traced, spec):
    """Signed worsening of the traced run vs the untraced one, in %."""
    base = untraced["metrics"][spec["name"]]["value"]
    value = traced["metrics"][spec["name"]]["value"]
    change = (value - base) / base * 100.0
    return -change if spec["better"] == "higher" else change


def single_run(args, table):
    deadline = time.monotonic() + RUN_BUDGET_S
    names = [spec["name"] for spec in
             table["per_layer" if args.trace else "end_to_end"]]
    first = run_binary(args.workload, args.seed, args.seconds, 0,
                       deadline - time.monotonic())
    result = first
    if args.trace:
        traced = run_binary(args.workload, args.seed, args.seconds, 1,
                            deadline - time.monotonic())
        overheads = []
        for spec in table["end_to_end"]:
            pct = overhead_pct(first, traced, spec)
            traced["metrics"]["trace.overhead_pct." + spec["name"]] = {
                "value": pct, "unit": "%"}
            if spec["name"] != "setup_s":
                overheads.append(pct)
        traced["metrics"]["trace.overhead_pct"] = {
            "value": statistics.median(overheads), "unit": "%"}
        # Tails come from the untraced run, like every end-to-end number.
        for name, metric in first["metrics"].items():
            if name.startswith("tail."):
                traced["metrics"][name] = metric
        result = {
            "correct": first["correct"] and traced["correct"],
            "attempted": first["attempted"] + traced["attempted"],
            "failed": first["failed"] + traced["failed"],
            "metrics": traced["metrics"],
        }
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        raise BenchError("metrics missing from the run: " + ", ".join(missing))
    metrics = {name: result["metrics"][name] for name in names}
    # Sample counts behind the percentiles go in the table, not the JSON.
    counts = {name: metric for name, metric in first["metrics"].items()
              if name.startswith("n.")}
    for name, metric in {**metrics, **counts}.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    # A run that fails the correctness gate fails, result printed or not.
    return 0 if result["correct"] and result["failed"] == 0 else 1


def steadiness(args, table):
    """Repeats workloads over consecutive seeds and reports, per end-to-end
    metric, median, quartiles and (q3 - q1) / median against its bound."""
    workloads = ([w["name"] for w in table["workloads"]]
                 if args.workload in (None, "all") else [args.workload])
    flagged = 0
    for workload in workloads:
        runs = []
        for i in range(args.steadiness):
            seed = args.seed + i
            ticks = cpu_ticks()
            run = run_binary(workload, seed, args.seconds, 0, RUN_BUDGET_S)
            steal = steal_pct(ticks, cpu_ticks())
            if not run["correct"] or run["failed"]:
                log(f"{workload} seed {seed}: correct={run['correct']} "
                    f"failed={run['failed']}")
                flagged += 1
            runs.append(run)
            log(f"{workload} seed {seed}: " + " ".join(
                f"{spec['name']}={run['metrics'][spec['name']]['value']:.4g}"
                for spec in table["end_to_end"]) + f" steal={steal:.1f}%")
        print(f"== {workload}: {len(runs)} runs, seeds "
              f"{args.seed}..{args.seed + args.steadiness - 1}")
        print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for spec in table["end_to_end"]:
            values = [run["metrics"][spec["name"]]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spread > spec["bound"]:
                flag = "  OVER BOUND"
                flagged += 1
            elif spread > spec["bound"] / 3:
                flag = "  over bound/3"
            print(f"{spec['name']:22s} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {spec['bound']:6.2f}{flag}")
        sys.stdout.flush()
    return 1 if flagged else 0


def write_config(table):
    config = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": table["workloads"],
        "end_to_end": table["end_to_end"],
        "per_layer": table["per_layer"],
    }
    for workload in config["workloads"]:
        if len(workload["why"]) > 200:
            raise BenchError(f"why of {workload['name']} exceeds 200 chars")
    with open(CONFIG, "w") as out:
        json.dump(config, out, indent=2)
        out.write("\n")
    log(f"wrote {CONFIG}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="repeat each workload over this many seeds")
    parser.add_argument("--write-config", action="store_true")
    args = parser.parse_args()
    try:
        build()
        table = describe()
        if args.write_config:
            return write_config(table)
        if args.steadiness:
            return steadiness(args, table)
        if args.workload not in [w["name"] for w in table["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        return single_run(args, table)
    except BenchError as error:
        log(f"run.py: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
