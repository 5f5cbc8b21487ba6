#!/usr/bin/env bash
# Configure + build + test, exiting non-zero on any failure.
#
# Usage:
#   scripts/ci.sh               # full lane: build everything, run all tests;
#                               # a Release build also fails on any
#                               # compiler warning in src/, tests/, bench/
#                               # or examples/
#   scripts/ci.sh --smoke       # fast lane: unit-labeled tests only
#   scripts/ci.sh --faults      # fault lane: run the fault-injection and
#                               # WAL crash-recovery suites
#                               # (ctest -L fault) twice — a Release build,
#                               # then an ASan+UBSan build — with a fixed
#                               # chaos seed (FCBENCH_FAULT_SEED, default 42)
#                               # so failures reproduce locally; the
#                               # ASan+UBSan pass also runs the codec suites
#                               # (codecs, compressors, wire format,
#                               # corruption, golden round trip), the
#                               # engine suites (lsm, shard), the db and
#                               # auto suites and obs_test
#   scripts/ci.sh --tsan        # race lane: ThreadSanitizer build, run the
#                               # concurrency- and fault-labeled suites
#                               # (ctest -L 'concurrency|fault') so the
#                               # engine's locking protocols are model-checked
#                               # against real interleavings
#   scripts/ci.sh --perf-smoke  # perf lane: Release build, run micro_bitio,
#                               # micro_parallel (threads 1/2/4 scaling
#                               # curve), micro_select (oracle-vs-auto
#                               # adaptive selection) and micro_ingest
#                               # (WAL ingest/recovery), micro_shard_ingest
#                               # (sharded multi-tenant scaling), paper_report
#                               # (the paper's 14 x 33 sweep, once; + a
#                               # reduced micro_codecs pass when built) and
#                               # write BENCH_*.json artifacts. One gate is
#                               # enforced: span tracing must stay within
#                               # its 2% append-overhead budget (the
#                               # trace-overhead row); the other JSON rows
#                               # record the perf trajectory only
#   scripts/ci.sh --perfbench-smoke
#                               # benchmark lane: build perfbench (it compiles
#                               # against lsm::MemTable and lsm::Wal) and run
#                               # every BENCHMARK.json workload for 3 s; fails
#                               # unless each run's result line reports
#                               # "correct": true and "failed": 0. Timing is
#                               # not gated
#
# Environment:
#   BUILD_DIR   build directory (default: build)
#   BUILD_TYPE  CMake build type (default: Release)
#   JOBS        parallelism (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
BUILD_TYPE=${BUILD_TYPE:-Release}
JOBS=${JOBS:-$(nproc)}

if [[ "${1:-}" == "--perf-smoke" ]]; then
  # Throughput numbers are meaningless under sanitizers; refuse to record
  # them into the trajectory.
  if [[ "${CXXFLAGS:-}${CFLAGS:-}" == *sanitize* ]]; then
    echo "perf-smoke: skipped (sanitizer flags detected)"
    exit 0
  fi
  if [[ "${BUILD_TYPE}" != "Release" ]]; then
    echo "perf-smoke: forcing BUILD_TYPE=Release (was ${BUILD_TYPE})"
    BUILD_TYPE=Release
  fi
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE="${BUILD_TYPE}" \
    -DFCBENCH_BUILD_TESTS=OFF
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_all
  # Reduced scale keeps the lane fast; the trajectory compares like against
  # like because the scale knobs are recorded in the bench banner.
  FCBENCH_BENCH_BYTES=${FCBENCH_BENCH_BYTES:-2097152} \
  FCBENCH_BENCH_REPEATS=${FCBENCH_BENCH_REPEATS:-3} \
    "${BUILD_DIR}/bench/micro_bitio" --json=BENCH_micro_codecs.json
  # Parallel-engine scaling curve (serial vs par-* at 1/2/4 threads). The
  # artifact records whatever the runner's core count allows; single-core
  # hosts legitimately produce a flat curve.
  FCBENCH_BENCH_BYTES=${FCBENCH_BENCH_BYTES:-2097152} \
  FCBENCH_BENCH_REPEATS=${FCBENCH_BENCH_REPEATS:-3} \
    "${BUILD_DIR}/bench/micro_parallel" --threads=1,2,4 \
    --json=BENCH_parallel_scaling.json
  # Adaptive-selection trajectory: oracle-vs-auto CR and selection
  # overhead across the nine synthetic generators (uploaded with the
  # other BENCH_*.json artifacts). Smaller default scale than the other
  # benches: the oracle compresses every chunk with every candidate.
  FCBENCH_BENCH_BYTES=${FCBENCH_BENCH_BYTES:-1048576} \
    "${BUILD_DIR}/bench/micro_select" --json=BENCH_adaptive_selection.json
  # Ingest-engine trajectory: WAL append throughput under the three
  # durability policies, recovery replay speed, flushed-segment CR, and
  # the metrics-enabled-vs-idle overhead check. The full registry
  # snapshot after the run is itself an artifact (BENCH_ prefix so the
  # CI upload glob picks it up).
  FCBENCH_BENCH_BYTES=${FCBENCH_BENCH_BYTES:-2097152} \
  FCBENCH_BENCH_REPEATS=${FCBENCH_BENCH_REPEATS:-3} \
    "${BUILD_DIR}/bench/micro_ingest" --json=BENCH_ingest_throughput.json \
    --metrics-json=BENCH_metrics_snapshot.json
  # Acceptance gate: span tracing must stay within its 2% append budget
  # (the trace-overhead row compares disabled tracing against 1/64
  # sampling; the disabled side is one relaxed load per span site).
  python3 - BENCH_ingest_throughput.json <<'PYEOF'
import json, sys
rows = json.load(open(sys.argv[1]))
row = next(r for r in rows if r["method"] == "trace-overhead")
pct, budget = row["overhead_pct"], row["budget_pct"]
print(f"perf-smoke: trace overhead {pct:+.2f}% (budget {budget}%)")
if pct >= budget:
    sys.exit(f"perf-smoke: trace overhead {pct:.2f}% exceeds {budget}% budget")
PYEOF
  # Sharded-ingest scaling curve: 64k series over 8 shards on 1/2/4/8
  # writer threads, with and without per-shard fsync. Flat on single-core
  # runners; the artifact still records the admission+routing overhead.
  FCBENCH_BENCH_BYTES=${FCBENCH_BENCH_BYTES:-2097152} \
  FCBENCH_BENCH_REPEATS=${FCBENCH_BENCH_REPEATS:-3} \
    "${BUILD_DIR}/bench/micro_shard_ingest" --json=BENCH_ingest_scaling.json
  # The paper's measurement matrix: one 14-method x 33-dataset sweep
  # renders Tables 4-6 and Figures 5-7 and 9, and writes one row per
  # (method, dataset).
  FCBENCH_BENCH_BYTES=${FCBENCH_BENCH_BYTES:-2097152} \
  FCBENCH_BENCH_REPEATS=${FCBENCH_BENCH_REPEATS:-3} \
    "${BUILD_DIR}/bench/paper_report" --json=BENCH_paper_sweep.json
  if [[ -x "${BUILD_DIR}/bench/micro_codecs" ]]; then
    "${BUILD_DIR}/bench/micro_codecs" \
      --benchmark_filter='BM_(Huffman|Fse|Simple8b|TimestampCodec)' \
      --benchmark_min_time=0.05
  else
    echo "perf-smoke: micro_codecs not built (google-benchmark missing); skipped"
  fi
  exit 0
fi

if [[ "${1:-}" == "--perfbench-smoke" ]]; then
  # run.py builds its own Release tree under .bench_build/ and exits
  # non-zero on a build failure, a crash or a wrong metric set.
  workloads=$(python3 -c 'import json
print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
  for w in ${workloads}; do
    last=$(python3 perfbench/run.py --workload "${w}" --seed 1 --seconds 3 \
      --trace 0 | tail -n 1)
    python3 - "${w}" "${last}" <<'PYEOF'
import json, sys
workload, result = sys.argv[1], json.loads(sys.argv[2])
print(f"perfbench-smoke: {workload}: correct={result['correct']} "
      f"attempted={result['attempted']} failed={result['failed']}")
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"perfbench-smoke: {workload} reported failed operations")
PYEOF
  done
  exit 0
fi

if [[ "${1:-}" == "--faults" ]]; then
  export FCBENCH_FAULT_SEED=${FCBENCH_FAULT_SEED:-42}
  # Pass 1: Release — the sweep at full speed.
  cmake -B "${BUILD_DIR}-faults" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${BUILD_DIR}-faults" -j "${JOBS}" \
    --target fault_injection_test lsm_crash_test fcbench_cli
  ctest --test-dir "${BUILD_DIR}-faults" --output-on-failure -j "${JOBS}" -L fault
  # Sample trace artifact: a fully-sampled ingest with one-shot faults
  # injected at retry-protected sites (the ladder absorbs them, so the
  # run succeeds while the timeline shows errno-tagged io.attempt retry
  # spans), exported as Chrome trace JSON (Perfetto-loadable) and
  # uploaded by the workflow. The python check proves the file parses
  # before it is called an artifact, and that spans and lifecycle events
  # share one timeline: an errno-tagged io.attempt span next to the
  # retry-backoff instant event the same fault recorded, which names the
  # engine dir it retried in.
  FCBENCH_FAILPOINTS="lsm.flush=err@1" \
    "${BUILD_DIR}-faults/examples/fcbench_cli" trace \
    --out="${BUILD_DIR}-faults/fault_trace.json" --series=16 --rows=1024
  python3 - "${BUILD_DIR}-faults/fault_trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert any(e["ph"] == "X" and e["name"] == "io.attempt" and e["args"]["tag"]
           for e in events), "no errno-tagged io.attempt span"
assert any(e["ph"] == "i" and e["name"] == "retry-backoff"
           for e in events), "no retry-backoff instant event"
assert all(e["args"]["detail"] for e in events
           if e["ph"] == "i" and e["name"] == "retry-backoff"), \
    "retry-backoff instant event without its engine dir"
PY
  echo "fault-lane trace artifact: ${BUILD_DIR}-faults/fault_trace.json"
  # Pass 2: ASan+UBSan — every injected error path runs under the
  # sanitizers, so a leak or UB on a rarely-taken failure branch fails
  # the lane instead of shipping. The codec suites run here too: the
  # compress kernels write through raw pointers into reserved buffers and
  # load 8 bytes at a time, the decoders write in place (pFPC chunks into
  # their slices, LZ4 matches a word at a time), compressors_test holds
  # the pFPC, bitshuffle, SPDP and transpose round trips, and the
  # corruption suites feed the decoders hostile lengths.
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
  # The engine suites exercise segment-handle and Version lifetimes
  # (last-release drops and quarantine moves, off-lock reads racing
  # installs), which only a sanitizer sees go wrong. The db suites run
  # the shared page decoder (PagedFile::Pages, ColumnStore row reads and
  # their page tasks) and the query layer's branch-free Filter.
  # select_test and streaming_test drive the auto* methods through the
  # one chunk container codec (ChunkedCompressor with per-chunk methods)
  # and StreamWriter::OpenChunked("auto-ratio"). obs_test runs the
  # SeqlockRing stress and the snapshot's process page-fault gauges.
  # util_test holds fs::MapReadOnly's tests (empty, missing and failing
  # maps, and a mapping read after its file is unlinked), the mapping
  # every column read decodes from.
  SAN_SUITES="codecs_test compressors_test wire_format_test corruption_test golden_roundtrip_test lsm_test shard_test column_store_test db_test query_test select_test streaming_test obs_test util_test"
  cmake -B "${BUILD_DIR}-faults-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
  # shellcheck disable=SC2086  # word-split the suite list into targets
  cmake --build "${BUILD_DIR}-faults-asan" -j "${JOBS}" \
    --target fault_injection_test lsm_crash_test ${SAN_SUITES}
  ctest --test-dir "${BUILD_DIR}-faults-asan" --output-on-failure -j "${JOBS}" -L fault
  # These suites are labelled unit or unit-concurrency, not fault, so
  # they run as whole binaries rather than through a ctest label.
  for suite in ${SAN_SUITES}; do
    "${BUILD_DIR}-faults-asan/tests/${suite}"
  done
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  export FCBENCH_FAULT_SEED=${FCBENCH_FAULT_SEED:-42}
  # TSAN_OPTIONS makes a detected race abort the test instead of just
  # logging it, so the lane goes red.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 abort_on_error=1}"
  SAN_FLAGS="-fsanitize=thread -g -O1"
  cmake -B "${BUILD_DIR}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
  cmake --build "${BUILD_DIR}-tsan" -j "${JOBS}" \
    --target concurrency_test lsm_test shard_test fault_injection_test \
    lsm_crash_test obs_test
  # -L takes a regex: one lane covers the thread-heavy suites AND the
  # fault suites (their injected error paths take rarely-exercised locks).
  ctest --test-dir "${BUILD_DIR}-tsan" --output-on-failure -j "${JOBS}" \
    -L 'concurrency|fault'
  exit 0
fi

CTEST_ARGS=(--output-on-failure -j "${JOBS}")
if [[ "${1:-}" == "--smoke" ]]; then
  CTEST_ARGS+=(-L unit)
fi

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE="${BUILD_TYPE}"
cmake --build "${BUILD_DIR}" -j "${JOBS}" 2>&1 | tee "${BUILD_DIR}/build.log"
# Warning gate (Release): any compiler warning located in the project's
# own sources fails the lane. Warnings reported at other locations (GCC
# 12's libstdc++ false positives, gtest's own sources) are not ours, which
# is why this is not a global -Werror. An incremental build only reports
# the files it recompiled, so the gate is complete on a fresh build dir.
if [[ "${BUILD_TYPE}" == "Release" ]]; then
  ours=$(grep -E "^(${PWD}/)?(src|tests|bench|examples)/[^:]+:[0-9]+:([0-9]+:)? warning:" \
    "${BUILD_DIR}/build.log" | sort -u || true)
  if [[ -n "${ours}" ]]; then
    echo "ci: compiler warnings in project sources:"
    echo "${ours}"
    exit 1
  fi
fi
ctest --test-dir "${BUILD_DIR}" "${CTEST_ARGS[@]}"
