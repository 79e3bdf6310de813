#!/usr/bin/env python3
"""Validates a setsketch BENCH_*.json perf-trajectory file.

Usage: validate_bench_json.py [--schema-only] <path>

The file must parse as JSON, identify itself via its "bench" marker, and
contain a positive ns_per_op result for every sweep point that bench is
configured to emit. Benches are keyed by the marker:

  update_kernel     bench_update_kernel (scalar/sliced/batched x s,
                    per-update/batched bank x r)
  fault_tolerance   bench_fault_tolerance (loopback ingest with the WAL
                    off / on without fsync / on with fsync)
  ingest_path       bench_ingest_path (served ingest timed until
                    applied, wal off/nofsync/fsync, client batch-width
                    sweep, and the in-process ApplyBatch ceiling)
  plan_cache        bench_plan_cache (repeated-query throughput: cold
                    direct/replan vs hot/equivalent cache hits, epoch
                    invalidation re-probe, served loopback QUERY path)
  cluster           bench_cluster (single-node vs routed ingest with and
                    without replication; federated query cost cold vs
                    via the router's epoch-aware summary cache; the
                    kill/restart/repair time-to-readmit turnaround)
  backends          bench_backends (pluggable distinct-sketch backend
                    shootout: ingest/estimate cost, accuracy and bytes
                    per backend, plus the deletion-storm scenario where
                    an insert-only sampling baseline diverges)

tools/check.sh smoke-runs each bench and validates its trajectory here,
so the perf reporting cannot silently rot.

--schema-only validates the expected-sweep tables themselves (names well
formed, no duplicates) without reading any file, so lint/tidy CI stages
can exercise this script without building a bench binary.

Exit status: 0 valid, 1 invalid or unreadable input, 2 usage error.
"""

import argparse
import re
import sys

S_SWEEP = (8, 16, 32, 64)
R_SWEEP = (64, 256, 512)

EXPECTED_BY_BENCH = {
    "update_kernel": (
        [f"BM_UpdateScalar/{s}" for s in S_SWEEP]
        + [f"BM_UpdateSliced/{s}" for s in S_SWEEP]
        + [f"BM_UpdateBatched/{s}" for s in S_SWEEP]
        + [f"BM_BankApplyPerUpdate/{r}" for r in R_SWEEP]
        + [f"BM_BankApplyBatch/{r}" for r in R_SWEEP]
    ),
    "fault_tolerance": [
        "LoopbackIngest/wal_off",
        "LoopbackIngest/wal_nofsync",
        "LoopbackIngest/wal_fsync",
    ],
    "ingest_path": [
        "IngestPath/wal_off",
        "IngestPath/wal_nofsync",
        "IngestPath/wal_fsync",
        "IngestPath/batch_16384",
        "IngestPath/batch_65536",
        "IngestPath/inprocess_apply",
    ],
    "plan_cache": [
        "PlanCacheQuery/cold_direct",
        "PlanCacheQuery/cold_replan",
        "PlanCacheQuery/hot_hit",
        "PlanCacheQuery/equivalent_hit",
        "PlanCacheQuery/invalidate_requery",
        "PlanCacheQuery/served_hot",
    ],
    "cluster": [
        "ClusterIngest/single_node",
        "ClusterIngest/router_fanout",
        "ClusterIngest/router_replicated",
        "ClusterQuery/single_node",
        "ClusterQuery/federated_cold",
        "ClusterQuery/federated_hot",
        "ClusterRepair/time_to_readmit",
    ],
    "backends": [
        f"{stage}/{backend}"
        for stage in ("BackendIngest", "BackendEstimate", "DeletionStorm")
        for backend in ("two_level", "theta_kmv", "set_sketch",
                        "set_sketch_782", "kmv_baseline")
    ],
}

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*/[A-Za-z0-9_]+$")


def check_schema():
    """Validates the EXPECTED tables themselves; returns problem list."""
    problems = []
    if not EXPECTED_BY_BENCH:
        problems.append("no benches configured")
    for bench, expected in EXPECTED_BY_BENCH.items():
        if not expected:
            problems.append(f"{bench}: expected sweep table is empty")
        if len(set(expected)) != len(expected):
            problems.append(f"{bench}: duplicate sweep names")
        for name in expected:
            if not _NAME_RE.match(name):
                problems.append(f"{bench}: malformed sweep name {name!r}")
    return problems


def validate_file(path):
    """Validates one trajectory file; returns a list of failures."""
    import json

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as err:
        return [f"cannot read file: {err}"]
    except json.JSONDecodeError as err:
        return [f"invalid JSON: {err}"]
    if not isinstance(doc, dict):
        return ["top-level JSON value is not an object"]
    bench = doc.get("bench")
    expected = EXPECTED_BY_BENCH.get(bench)
    if expected is None:
        known = ", ".join(sorted(EXPECTED_BY_BENCH))
        return [f"unknown bench marker {bench!r} (known: {known})"]
    raw_results = doc.get("results", [])
    if not isinstance(raw_results, list) or not raw_results:
        return ["empty or missing results sweep"]
    results = {
        r.get("name"): r for r in raw_results if isinstance(r, dict)
    }
    failures = []
    for name in expected:
        entry = results.get(name)
        if entry is None:
            failures.append(f"missing result {name}")
        elif not (
            isinstance(entry.get("ns_per_op"), (int, float))
            and entry["ns_per_op"] > 0
        ):
            failures.append(f"{name}: ns_per_op not a positive number")
    return failures


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="validate_bench_json.py [--schema-only] [path]",
    )
    parser.add_argument(
        "--schema-only",
        action="store_true",
        help="validate the expected-sweep tables only; no file needed",
    )
    parser.add_argument("path", nargs="?", help="trajectory JSON to check")
    args = parser.parse_args(argv[1:])

    problems = check_schema()
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    total = sum(len(v) for v in EXPECTED_BY_BENCH.values())
    if args.schema_only:
        print(
            f"schema: ok ({len(EXPECTED_BY_BENCH)} benches, "
            f"{total} sweep points)"
        )
        return 0

    if args.path is None:
        parser.print_usage(sys.stderr)
        print(
            "error: a trajectory file path is required "
            "(or pass --schema-only)",
            file=sys.stderr,
        )
        return 2
    failures = validate_file(args.path)
    if failures:
        for failure in failures:
            print(f"{args.path}: {failure}", file=sys.stderr)
        return 1
    print(f"{args.path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
