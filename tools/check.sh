#!/usr/bin/env bash
# Full pre-merge correctness gate, eight stages:
#
#   1. release   Release build + full test suite + bench smoke (the
#                update-kernel, fault-tolerance, ingest-path, plan-cache
#                and backends JSON perf trajectories must validate; the
#                ingest-path smoke also enforces the served-vs-in-process
#                applied-throughput floor, the backends smoke the
#                deletion-storm contract, and the DELETE smoke the flat
#                2LHS error under churn, by exit status).
#   2. asan      AddressSanitizer build + full test suite (includes the
#                epoll-loop integration tests).
#   3. tsan      ThreadSanitizer build + the concurrency-sensitive tests
#                (race detection over the server, shard queues, WAL
#                writer, parallel ingest, the epoll ingest loop, the
#                fault-tolerance suite's idle sweeps and restarts, lazy
#                slice publication, the router's online membership
#                changes racing pushes, and the router's per-connection
#                threads being joined as connections end), then the
#                stale-query probe
#                stress (probe tables filled on the shard workers while
#                pushes arrive) repeated 50 times.
#   4. ubsan    UndefinedBehaviorSanitizer build (-fno-sanitize-recover,
#                so any UB fails the run) + full test suite.
#   5. chaos     AddressSanitizer build + the fault-tolerance suite
#                (seeded fault injection, WAL corruption, crash
#                recovery), then a real kill -9 crash/recover/dedup
#                cycle driven end-to-end through the sketchtool CLI,
#                and two startup refusals: a restart under another
#                --copies and an out-of-bounds --backend-size.
#   6. cluster   AddressSanitizer build + the cluster suite (hash-ring
#                placement, hello handshake, federated queries, chaos
#                failover, self-healing repair, read policies, online
#                membership, backoff numerics, connection threads
#                joined as connections end), then the router's
#                repair/membership/push/query stress test repeated 200
#                times (its one state transfer must never miss a write),
#                then a real 3-shard +
#                router deployment through the sketchtool CLI: kill -9
#                the shard owning a stream mid-run, fail reads over to
#                the replica, restart on the WAL, verify the SAME router
#                repairs and re-admits the shard via anti-entropy (no
#                router restart), re-push through the dedup window, then
#                an online membership chaos pass (route add-shard /
#                drain-shard against the live router) — every federated
#                answer must stay bit-identical to a fault-free single
#                node; finally a bench_cluster JSON trajectory smoke
#                (including the kill/restart time-to-readmit sweep).
#   7. tidy      tools/lint.py source hygiene + validate_bench_json.py
#                --schema-only + clang-tidy over the library (skipped
#                with a notice when clang-tidy is not installed).
#   8. analysis  compile-time concurrency contracts: a clang build under
#                -Wthread-safety -Werror=thread-safety
#                (SETSKETCH_THREAD_SAFETY=ON) plus the annotation corpus
#                (skipped with a notice when clang++ is not installed),
#                then tools/analyze.py over the tree (arena-view
#                escapes, ingest/estimator seam routing, DCHECK side
#                effects, cross-TU lock-order cycles, hot-path
#                allocation audit) and its good/bad snippet corpus.
#
# The whole tree builds with -Wall -Wextra -Werror in every stage.
#
#   tools/check.sh [build-dir-prefix] [stage ...]
#
# With no stage arguments every stage runs. Build trees land in
# <prefix>-<stage>/ (default prefix: build-check). Pass
# SETSKETCH_CHECK_JOBS to override the build parallelism (default:
# nproc).

set -euo pipefail

cd "$(dirname "$0")/.."
prefix="build-check"
if [[ $# -gt 0 ]]; then
  case "$1" in
    release|asan|tsan|ubsan|chaos|cluster|tidy|analysis) ;;  # A stage name.
    *) prefix="$1"; shift ;;
  esac
fi
stages=("$@")
if [[ ${#stages[@]} -eq 0 ]]; then
  stages=(release asan tsan ubsan chaos cluster tidy analysis)
fi
jobs="${SETSKETCH_CHECK_JOBS:-$(nproc)}"

build_and_test() {
  local dir="$1"
  local ctest_filter="$2"
  shift 2
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${jobs}"
  echo "=== test ${dir} ==="
  if [[ -n "${ctest_filter}" ]]; then
    ctest --test-dir "${dir}" --output-on-failure -R "${ctest_filter}"
  else
    ctest --test-dir "${dir}" --output-on-failure
  fi
}

stage_release() {
  build_and_test "${prefix}-release" "" -DCMAKE_BUILD_TYPE=Release

  # Bench smoke: a short bench_update_kernel run must produce a JSON perf
  # trajectory that parses and covers every configured sweep point, so
  # the BENCH_update_kernel.json reporting can't silently rot.
  echo "=== bench smoke (update-kernel JSON trajectory) ==="
  local smoke_json="${prefix}-release/BENCH_update_kernel.smoke.json"
  SETSKETCH_BENCH_JSON="${smoke_json}" \
    "${prefix}-release/bench/bench_update_kernel" \
    --benchmark_min_time=0.01 >/dev/null
  python3 tools/validate_bench_json.py "${smoke_json}"

  echo "=== bench smoke (fault-tolerance JSON trajectory) ==="
  local ft_json="${prefix}-release/BENCH_fault_tolerance.smoke.json"
  SETSKETCH_BENCH_JSON="${ft_json}" SETSKETCH_BENCH_SCALE=0.05 \
    "${prefix}-release/bench/bench_fault_tolerance" >/dev/null
  python3 tools/validate_bench_json.py "${ft_json}"

  # Ingest-path smoke: also enforces the served applied-throughput floor
  # (a fraction of the in-process SketchBank::ApplyBatch rate,
  # SETSKETCH_INGEST_FLOOR; the bench exits nonzero below it).
  echo "=== bench smoke (ingest-path JSON trajectory) ==="
  local ip_json="${prefix}-release/BENCH_ingest_path.smoke.json"
  SETSKETCH_BENCH_JSON="${ip_json}" SETSKETCH_BENCH_SCALE=0.05 \
    "${prefix}-release/bench/bench_ingest_path" >/dev/null
  python3 tools/validate_bench_json.py "${ip_json}"

  # Plan-cache smoke: also enforces the >= 5x hot-vs-cold repeated-query
  # speedup floor and the <= 1.25x re-query-after-ingest vs direct
  # estimator ceiling (the bench exits nonzero outside either).
  echo "=== bench smoke (plan-cache JSON trajectory) ==="
  local pc_json="${prefix}-release/BENCH_plan_cache.smoke.json"
  SETSKETCH_BENCH_JSON="${pc_json}" SETSKETCH_BENCH_SCALE=0.05 \
    "${prefix}-release/bench/bench_plan_cache" >/dev/null
  python3 tools/validate_bench_json.py "${pc_json}"

  # Backend-shootout smoke: also enforces the deletion-storm contract
  # (served backends within 3x their target error, the theta baseline
  # that never sees the storm diverging; the bench exits nonzero
  # otherwise).
  echo "=== bench smoke (backends JSON trajectory) ==="
  local bk_json="${prefix}-release/BENCH_backends.smoke.json"
  SETSKETCH_BENCH_JSON="${bk_json}" SETSKETCH_BENCH_SCALE=0.1 \
    "${prefix}-release/bench/bench_backends" >/dev/null
  python3 tools/validate_bench_json.py "${bk_json}"

  # DELETE smoke: the bench exits nonzero unless, within each churn
  # sweep, the 2-level hash sketch error is identical at every churn
  # level (the churned sketches are bit-identical to the churn-free ones).
  echo "=== bench smoke (DELETE shape gate) ==="
  (cd "${prefix}-release" && SETSKETCH_BENCH_SCALE=0.05 \
    SETSKETCH_BENCH_TRIALS=2 ./bench/bench_deletions >/dev/null)
}

stage_asan() {
  build_and_test "${prefix}-asan" "" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSETSKETCH_SANITIZE=address
}

stage_tsan() {
  # TSAN_OPTIONS: any reported race fails the test run. No suppressions
  # file — the gate requires the tree to be race-free as written.
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    build_and_test "${prefix}-tsan" \
      "TsanConcurrencyTest|ShardQueueTest|SketchServerTest|ParallelIngest|IngestFastPathTsan|EpollIngestTest|FaultToleranceTest|ClusterMembershipTest|RouterConnectionTest" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSETSKETCH_SANITIZE=thread

  # Stale queries filling probe tables on three shard workers while two
  # connections push: repeated, since one run sees few interleavings.
  echo "=== tsan stress (fresh queries probed on shard workers, x50) ==="
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    "${prefix}-tsan/tests/setsketch_tests" --gtest_brief=1 \
    --gtest_filter=TsanConcurrencyTest.FreshQueriesProbeOnShardWorkersWhilePushing \
    --gtest_repeat=50
}

stage_ubsan() {
  # -fno-sanitize-recover=all is added by CMake for the undefined
  # sanitizer, so any flagged UB aborts the offending test.
  build_and_test "${prefix}-ubsan" "" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSETSKETCH_SANITIZE=undefined
}

stage_chaos() {
  # Fault-injected end-to-end flow under AddressSanitizer: the seeded
  # chaos/recovery suite first, then a real kill -9 against a live
  # WAL-backed server, a restart on the same directory, and an
  # idempotent re-push that must be deduplicated, not double-counted.
  build_and_test "${prefix}-chaos" \
    "FaultToleranceTest|FaultInjectorTest|WalTest|DedupWindowTest|DedupIndexTest" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSETSKETCH_SANITIZE=address

  echo "=== chaos e2e (kill -9 + WAL recovery via sketchtool) ==="
  local tool="${prefix}-chaos/tools/sketchtool"
  local dir
  dir="$(mktemp -d)"
  local wal="${dir}/wal"
  local updates="${dir}/updates.txt"
  local i
  for ((i = 0; i < 2000; ++i)); do
    echo "0 $((i * 7919 + 1)) 1"
    echo "1 $((i * 104729 + 3)) 1"
  done > "${updates}"

  wait_for_port() {
    local log="$1"
    local tries
    for ((tries = 0; tries < 300; ++tries)); do
      if grep -q "listening on" "${log}"; then
        sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "${log}"
        return 0
      fi
      sleep 0.1
    done
    echo "server never announced its port; log:" >&2
    cat "${log}" >&2
    return 1
  }

  "${tool}" serve --port 0 --copies 32 --wal-dir "${wal}" \
    > "${dir}/serve1.log" &
  local server_pid=$!
  local port
  port="$(wait_for_port "${dir}/serve1.log")"
  "${tool}" push --port "${port}" --updates "${updates}" \
    --streams A,B --site chaos --batch 500 > "${dir}/push1.log"
  cat "${dir}/push1.log"
  # Crash: every ACKed batch above is already fsync'd in the WAL.
  kill -9 "${server_pid}"
  wait "${server_pid}" 2>/dev/null || true

  "${tool}" serve --port 0 --copies 32 --wal-dir "${wal}" \
    > "${dir}/serve2.log" &
  server_pid=$!
  port="$(wait_for_port "${dir}/serve2.log")"
  # Recovery restored the dedup index too: re-running the exact same
  # push is all duplicate ACKs, never double-counted.
  "${tool}" push --port "${port}" --updates "${updates}" \
    --streams A,B --site chaos --batch 500 > "${dir}/push2.log"
  cat "${dir}/push2.log"
  if ! grep -q "8 duplicate acks" "${dir}/push2.log"; then
    echo "chaos e2e: re-push was not fully deduplicated" >&2
    exit 1
  fi
  "${tool}" stats --port "${port}" > "${dir}/stats.log"
  grep -q "recoveries 1" "${dir}/stats.log"
  grep -q "recovered_batches 8" "${dir}/stats.log"
  grep -q "recovered_updates 4000" "${dir}/stats.log"
  grep -q "duplicates_dropped 8" "${dir}/stats.log"
  "${tool}" query --port "${port}" --expr "A | B"
  "${tool}" shutdown --port "${port}"
  wait "${server_pid}"
  grep -q "batches recovered" "${dir}/serve2.log"

  # A restart under another configuration must refuse the checkpoint
  # instead of mixing foreign coins; an invalid configuration is refused
  # before the server binds. (timeout only bounds a wrongly started
  # server; the message checks tell the refusals apart from it.)
  if timeout 30 "${tool}" serve --port 0 --copies 16 --wal-dir "${wal}" \
      > "${dir}/serve3.log" 2>&1; then
    echo "chaos e2e: restart with --copies 16 was not refused" >&2
    exit 1
  fi
  grep -q "different sketch configuration" "${dir}/serve3.log"
  if timeout 30 "${tool}" serve --port 0 --backend-size 8 \
      > "${dir}/serve4.log" 2>&1; then
    echo "chaos e2e: serve --backend-size 8 was not refused" >&2
    exit 1
  fi
  if grep -q "listening on" "${dir}/serve4.log"; then
    echo "chaos e2e: serve --backend-size 8 bound a port" >&2
    exit 1
  fi
  grep -q "invalid sketch configuration" "${dir}/serve4.log"
  rm -rf "${dir}"
  echo "=== chaos e2e passed ==="
}

stage_cluster() {
  # Cluster suite under AddressSanitizer: placement, handshake, summary
  # pulls, federated bit-identity, the in-process chaos tests, the
  # self-healing repair/read-policy/membership tests and the shared
  # backoff policy numerics.
  build_and_test "${prefix}-cluster" \
    "HashRingTest|RouterConnectionTest|ClusterHandshakeTest|ClusterSummaryTest|ClusterRouterTest|ClusterChaosTest|ClusterSelfHealingTest|ClusterReadPolicyTest|ClusterMembershipTest|ClusterCommandsTest|BackoffTest" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSETSKETCH_SANITIZE=address

  # Repair, add-shard and drain-shard racing pushes and queries: every
  # run must end bit-identical to a fault-free single node.
  echo "=== cluster stress (repair + membership + push + query, x200) ==="
  "${prefix}-cluster/tests/setsketch_tests" --gtest_brief=1 \
    --gtest_filter=TsanConcurrencyTest.RouterRepairMembershipPushQueryStress \
    --gtest_repeat=200

  echo "=== cluster e2e (3 shards + router, kill -9 + failover) ==="
  local tool="${prefix}-cluster/tools/sketchtool"
  local dir
  dir="$(mktemp -d)"
  local i
  for ((i = 0; i < 1500; ++i)); do
    echo "0 $((i * 7919 + 1)) 1"
    echo "1 $((i * 104729 + 3)) 1"
    echo "2 $((i * 15485863 + 7)) 1"
  done > "${dir}/phase1.txt"
  for ((i = 1500; i < 2500; ++i)); do
    echo "0 $((i * 7919 + 1)) 1"
    echo "1 $((i * 104729 + 3)) 1"
    echo "2 $((i * 15485863 + 7)) 1"
  done > "${dir}/phase2.txt"

  wait_for_announce() {
    local log="$1"
    local marker="$2"
    local tries
    for ((tries = 0; tries < 300; ++tries)); do
      if grep -q "${marker}" "${log}"; then
        sed -n "s/.*${marker} .*:\([0-9][0-9]*\) .*/\1/p;
                s/.*${marker} .*:\([0-9][0-9]*\)\$/\1/p" "${log}" |
          head -1
        return 0
      fi
      sleep 0.1
    done
    echo "no '${marker}' announcement; log:" >&2
    cat "${log}" >&2
    return 1
  }

  # Three WAL-backed shards and one fault-free reference server.
  local shard_pids=() shard_ports=()
  for i in 0 1 2; do
    "${tool}" serve --port 0 --copies 32 --wal-dir "${dir}/wal${i}" \
      > "${dir}/shard${i}.log" &
    shard_pids[i]=$!
    shard_ports[i]="$(wait_for_announce "${dir}/shard${i}.log" \
      'listening on')"
  done
  "${tool}" serve --port 0 --copies 32 > "${dir}/ref.log" &
  local ref_pid=$!
  local ref_port
  ref_port="$(wait_for_announce "${dir}/ref.log" 'listening on')"

  local shard_list
  shard_list="127.0.0.1:${shard_ports[0]},127.0.0.1:${shard_ports[1]}"
  shard_list+=",127.0.0.1:${shard_ports[2]}"
  "${tool}" route --port 0 --shards "${shard_list}" --replicas 1 \
    --copies 32 --probe-interval-ms 200 > "${dir}/route.log" &
  local route_pid=$!
  local route_port
  route_port="$(wait_for_announce "${dir}/route.log" 'routing on')"

  local expr="(A - B) & C"
  "${tool}" push --port "${route_port}" --updates "${dir}/phase1.txt" \
    --streams A,B,C --site cluster --batch 500 > "${dir}/push1.log"
  "${tool}" push --port "${ref_port}" --updates "${dir}/phase1.txt" \
    --streams A,B,C --site cluster --batch 500 >/dev/null
  local want got
  want="$("${tool}" query --port "${ref_port}" --expr "${expr}")"
  got="$("${tool}" query --port "${route_port}" --expr "${expr}")"
  if [[ "${got}" != "${want}" ]]; then
    echo "cluster e2e: federated answer diverged pre-fault" >&2
    echo "  reference: ${want}" >&2
    echo "  federated: ${got}" >&2
    exit 1
  fi

  # Kill -9 the shard that owns stream A (first write target in the
  # router's EXPLAIN placement report).
  "${tool}" explain --port "${route_port}" --expr "A" > "${dir}/place.log"
  local owner_port
  owner_port="$(sed -n \
    's/^stream A targets=127\.0\.0\.1:\([0-9]*\),.*/\1/p' \
    "${dir}/place.log")"
  local owner_index=-1
  for i in 0 1 2; do
    if [[ "${shard_ports[i]}" == "${owner_port}" ]]; then
      owner_index=$i
    fi
  done
  if [[ ${owner_index} -lt 0 ]]; then
    echo "cluster e2e: cannot find owner of stream A" >&2
    cat "${dir}/place.log" >&2
    exit 1
  fi
  kill -9 "${shard_pids[owner_index]}"
  wait "${shard_pids[owner_index]}" 2>/dev/null || true

  # Ingest continues through the surviving replica (the push CLI absorbs
  # the RETRY_LATER bounce while the router discovers the death), and
  # reads fail over — still bit-identical to the fault-free reference.
  "${tool}" push --port "${route_port}" --updates "${dir}/phase2.txt" \
    --streams A,B,C --site cluster --seq-start 10 --batch 500 \
    > "${dir}/push2.log"
  "${tool}" push --port "${ref_port}" --updates "${dir}/phase2.txt" \
    --streams A,B,C --site cluster --seq-start 10 --batch 500 >/dev/null
  want="$("${tool}" query --port "${ref_port}" --expr "${expr}")"
  got="$("${tool}" query --port "${route_port}" --expr "${expr}")"
  if [[ "${got}" != "${want}" ]]; then
    echo "cluster e2e: federated answer diverged after owner death" >&2
    echo "  reference: ${want}" >&2
    echo "  federated: ${got}" >&2
    exit 1
  fi
  "${tool}" stats --port "${route_port}" > "${dir}/stats1.log"
  grep -q "stale_shards 1" "${dir}/stats1.log"
  if grep -q "^failovers 0\$" "${dir}/stats1.log"; then
    echo "cluster e2e: no failover recorded" >&2
    exit 1
  fi

  # Restart the dead shard on its old port + WAL (replay restores the
  # pre-kill batches and the dedup index). The SAME router's probe loop
  # must then detect the restart, pull the crash gap from the surviving
  # replica via anti-entropy repair, and re-admit the shard — no router
  # restart. Poll STATS until the healing counters confirm it.
  "${tool}" serve --port "${owner_port}" --copies 32 \
    --wal-dir "${dir}/wal${owner_index}" > "${dir}/recovered.log" &
  shard_pids[owner_index]=$!
  wait_for_announce "${dir}/recovered.log" 'listening on' >/dev/null
  "${tool}" stats --port "${owner_port}" > "${dir}/rstats.log"
  grep -q "recoveries 1" "${dir}/rstats.log"
  if grep -q "^recovered_batches 0\$" "${dir}/rstats.log"; then
    echo "cluster e2e: restarted owner replayed no WAL batches" >&2
    exit 1
  fi
  local healed=0
  for ((i = 0; i < 100; ++i)); do
    "${tool}" stats --port "${route_port}" > "${dir}/stats2.log"
    if grep -q "^stale_shards 0\$" "${dir}/stats2.log" &&
        ! grep -q "^repairs 0\$" "${dir}/stats2.log" &&
        ! grep -q "^readmissions 0\$" "${dir}/stats2.log"; then
      healed=1
      break
    fi
    sleep 0.1
  done
  if [[ ${healed} -ne 1 ]]; then
    echo "cluster e2e: router never repaired/re-admitted the shard" >&2
    cat "${dir}/stats2.log" >&2
    exit 1
  fi
  # The repair carried the dedup watermarks with the data, so a client
  # re-push of the missed phase is ALL duplicate ACKs on every copy —
  # the recovered owner needs nothing from the client.
  "${tool}" push --port "${route_port}" --updates "${dir}/phase2.txt" \
    --streams A,B,C --site cluster --seq-start 10 --batch 500 \
    > "${dir}/push3.log"
  grep -q "6 duplicate acks" "${dir}/push3.log"
  # And a second full replay stays all-duplicate — nothing
  # double-counted.
  "${tool}" push --port "${route_port}" --updates "${dir}/phase2.txt" \
    --streams A,B,C --site cluster --seq-start 10 --batch 500 \
    > "${dir}/push4.log"
  grep -q "6 duplicate acks" "${dir}/push4.log"

  # A fresh router (no stale memory) reads from the recovered owner
  # again; its answer matching the reference proves recovery + re-push
  # rebuilt the owner bit-identically, applied exactly once.
  "${tool}" route --port 0 --shards "${shard_list}" --replicas 1 \
    --copies 32 > "${dir}/route2.log" &
  local route2_pid=$!
  local route2_port
  route2_port="$(wait_for_announce "${dir}/route2.log" 'routing on')"
  got="$("${tool}" query --port "${route2_port}" --expr "${expr}")"
  if [[ "${got}" != "${want}" ]]; then
    echo "cluster e2e: recovered owner diverged from the reference" >&2
    echo "  reference: ${want}" >&2
    echo "  federated: ${got}" >&2
    exit 1
  fi

  "${tool}" shutdown --port "${route2_port}"
  wait "${route2_pid}"

  echo "=== cluster e2e (online membership: add-shard / drain-shard) ==="
  # A vetted fourth shard joins the RUNNING router: only its ring
  # segment migrates (pushes wait under the write gate until the ring
  # flips), and the federated answer never drifts from the fault-free
  # reference — before, during, and after the membership change.
  "${tool}" serve --port 0 --copies 32 --wal-dir "${dir}/wal3" \
    > "${dir}/shard3.log" &
  local shard3_pid=$!
  local shard3_port
  shard3_port="$(wait_for_announce "${dir}/shard3.log" 'listening on')"
  "${tool}" route add-shard --router "127.0.0.1:${route_port}" \
    --shard "127.0.0.1:${shard3_port}" > "${dir}/admin1.log"
  grep -q "added shard '127.0.0.1:${shard3_port}'" "${dir}/admin1.log"
  got="$("${tool}" query --port "${route_port}" --expr "${expr}")"
  if [[ "${got}" != "${want}" ]]; then
    echo "cluster e2e: answer diverged after add-shard" >&2
    echo "  reference: ${want}" >&2
    echo "  federated: ${got}" >&2
    exit 1
  fi
  # Push a third phase through the grown ring, mirrored to the
  # reference, then drain the new shard back out of the live router.
  for ((i = 2500; i < 3000; ++i)); do
    echo "0 $((i * 7919 + 1)) 1"
    echo "1 $((i * 104729 + 3)) 1"
    echo "2 $((i * 15485863 + 7)) 1"
  done > "${dir}/phase3.txt"
  "${tool}" push --port "${route_port}" --updates "${dir}/phase3.txt" \
    --streams A,B,C --site cluster --seq-start 20 --batch 500 \
    > "${dir}/push5.log"
  "${tool}" push --port "${ref_port}" --updates "${dir}/phase3.txt" \
    --streams A,B,C --site cluster --seq-start 20 --batch 500 >/dev/null
  want="$("${tool}" query --port "${ref_port}" --expr "${expr}")"
  got="$("${tool}" query --port "${route_port}" --expr "${expr}")"
  if [[ "${got}" != "${want}" ]]; then
    echo "cluster e2e: answer diverged on the grown ring" >&2
    echo "  reference: ${want}" >&2
    echo "  federated: ${got}" >&2
    exit 1
  fi
  "${tool}" route drain-shard --router "127.0.0.1:${route_port}" \
    --name "127.0.0.1:${shard3_port}" > "${dir}/admin2.log"
  grep -q "drained shard '127.0.0.1:${shard3_port}'" "${dir}/admin2.log"
  got="$("${tool}" query --port "${route_port}" --expr "${expr}")"
  if [[ "${got}" != "${want}" ]]; then
    echo "cluster e2e: answer diverged after drain-shard" >&2
    echo "  reference: ${want}" >&2
    echo "  federated: ${got}" >&2
    exit 1
  fi
  "${tool}" stats --port "${route_port}" > "${dir}/stats3.log"
  grep -q "^removed_shards 1\$" "${dir}/stats3.log"
  "${tool}" shutdown --port "${shard3_port}"
  wait "${shard3_pid}"

  "${tool}" shutdown --port "${route_port}"
  wait "${route_pid}"
  for i in 0 1 2; do
    "${tool}" shutdown --port "${shard_ports[i]}"
  done
  "${tool}" shutdown --port "${ref_port}"
  wait "${shard_pids[@]}" "${ref_pid}"
  # The recovered shard's exit summary confirms the WAL replay happened.
  grep -q "batches recovered" "${dir}/recovered.log"
  rm -rf "${dir}"
  echo "=== cluster e2e passed ==="

  echo "=== bench smoke (cluster JSON trajectory) ==="
  local cl_json="${prefix}-cluster/BENCH_cluster.smoke.json"
  SETSKETCH_BENCH_JSON="${cl_json}" SETSKETCH_BENCH_SCALE=0.05 \
    "${prefix}-cluster/bench/bench_cluster" >/dev/null
  python3 tools/validate_bench_json.py "${cl_json}"
}

stage_tidy() {
  echo "=== lint (tools/lint.py) ==="
  python3 tools/lint.py
  echo "=== bench-json schema (tools/validate_bench_json.py) ==="
  python3 tools/validate_bench_json.py --schema-only
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== clang-tidy (SETSKETCH_TIDY=ON) ==="
    cmake -B "${prefix}-tidy" -S . -DCMAKE_BUILD_TYPE=Release \
      -DSETSKETCH_TIDY=ON >/dev/null
    cmake --build "${prefix}-tidy" -j "${jobs}" \
      --target setsketch setsketch_server setsketch_cluster
  else
    echo "=== clang-tidy not installed; skipping the tidy build ==="
    echo "    (install clang-tidy and re-run tools/check.sh tidy)"
  fi
}

stage_analysis() {
  # Thread-safety contracts need clang; the analyzer itself does not.
  if command -v clang++ >/dev/null 2>&1; then
    echo "=== thread-safety build (SETSKETCH_THREAD_SAFETY=ON) ==="
    cmake -B "${prefix}-analysis" -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_COMPILER=clang++ -DSETSKETCH_THREAD_SAFETY=ON \
      >/dev/null
    cmake --build "${prefix}-analysis" -j "${jobs}"
    echo "=== thread-safety annotation corpus ==="
    tests/analysis_corpus/tsa/run_tsa_corpus.sh src
  else
    echo "=== clang++ not installed; skipping the thread-safety build ==="
    echo "    (install clang and re-run tools/check.sh analysis)"
  fi
  echo "=== analyzer corpus (tools/analyze.py --corpus) ==="
  python3 tools/analyze.py --corpus tests/analysis_corpus
  echo "=== analyzer over the production tree ==="
  # Prefer a build tree that has compile_commands.json for the libclang
  # frontend; the lexer frontend covers boxes without one.
  local analyze_build="${prefix}-analysis"
  if [[ ! -f "${analyze_build}/compile_commands.json" ]]; then
    analyze_build="${prefix}-release"
  fi
  python3 tools/analyze.py --build-dir "${analyze_build}"
}

for stage in "${stages[@]}"; do
  "stage_${stage}"
done

echo "=== all checks passed (${stages[*]}) ==="
