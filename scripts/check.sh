#!/usr/bin/env bash
# Tier-1 verification gate.
#
# Configures + builds the whole tree in strict mode (-DETA_STRICT_WARNINGS=ON:
# -Wall -Wextra -Wshadow -Werror everywhere), refuses any compiler warning
# that mentions the serving layer, runs scripts/lint.sh, and then runs the
# full test suite. Usage:
#
#   scripts/check.sh [build-dir]
#   scripts/check.sh --sanitize [build-dir]
#   scripts/check.sh --tsan [build-dir]
#   scripts/check.sh --faults [build-dir]
#   scripts/check.sh --profile [build-dir]
#   scripts/check.sh --shard [build-dir]
#   scripts/check.sh --async [build-dir]
#   scripts/check.sh --verify [build-dir]
#   scripts/check.sh --overload [build-dir]
#   scripts/check.sh --trace [build-dir]
#   scripts/check.sh --digest
#
# --sanitize builds into a second build tree (default build-asan) with
# AddressSanitizer + UndefinedBehaviorSanitizer (-fno-sanitize-recover=all,
# so any report is fatal) and runs the full test suite under it. The
# simulated kernels execute against real host backing memory, which is
# exactly what makes host ASan meaningful here: a simulator indexing bug
# that slipped past etacheck would be a real heap-buffer-overflow.
#
# --tsan builds into a third build tree (default build-tsan) with
# ThreadSanitizer and runs the full test suite under it. The simulator is
# single-threaded by design; TSan enforces that no stray thread creation or
# unsynchronized shared state sneaks into the stream/async layer, whose
# code is written against real concurrent semantics.
#
# --faults builds normally and then exercises the fault model end to end
# (DESIGN.md section 8): the fault/recovery test binaries, a CLI fault
# matrix (every fault class through etagraph and etagraph_serve, with a
# replay-determinism diff), and the bench_fault_overhead zero-cost contract.
#
# --shard builds normally and then exercises the sharded serving fleet
# (DESIGN.md section 10): the scheduler/router test binaries, the
# max-batch>32 wave-split regression (no abort, replay byte-identical to a
# capped run), a shards x faults matrix with a double-run replay-determinism
# diff and a no-request-lost completeness check, a replay diff of the single
# engine (--window=0) against a one-shard fleet, and the fleet-scaling gate
# in bench_serve_throughput.
#
# --async builds normally and then exercises the stream dispatcher
# (DESIGN.md section 11): the stream/event test binary, a prestage-off vs
# --async replay diff across the serve matrix (shards x faults, single
# graph — the byte-identity contract), a double-run async
# replay-determinism diff, a multi-graph replay (2 shards, 3 graphs,
# residency budget, faults) diffed against tests/golden/, and the
# staging-overlap throughput-lift gate in bench_overlap_serve.
#
# --verify builds normally and then exercises etaverify end to end
# (DESIGN.md section 12): the verifier test binary, a planted-bug matrix
# (each surgical DAG plant x BFS/SSSP must exit nonzero and report the
# expected finding kind with buffer attribution, while the replay stays
# byte-identical to the healthy run — the timing-luck defects replay
# diffs cannot see), a clean multi-graph matrix over shards x faults that
# must verify with zero findings (plus prestage-off rows, whose dispatch
# DAGs are recorded too), and a double-run byte-identity diff of the
# verifier's JSON report.
#
# --overload builds normally and then exercises the overload-control stack
# (DESIGN.md section 13): the overload/router test binaries, an open-loop
# CLI matrix (arrivals x shards x faults with the full control stack on:
# SLO admission, brownout, retry budget, breaker), a double-run
# replay-determinism diff with a no-request-lost completeness check on
# every cell, an edf x memo x autoscale matrix (DESIGN.md section 15)
# under the same gates, and the calibrated-capacity gates in
# bench_overload (gold goodput >= 95% at 2x offered load, queues bounded,
# byte-identical double runs, and EDF meeting at least as many per-class
# deadlines as FIFO+priority at 1.2x).
#
# --trace builds normally and then exercises etatrace end to end
# (DESIGN.md section 14): the trace/flight-recorder test binary, a traced
# open-loop matrix (shards x faults x arrivals with --trace-requests,
# --blackbox-out, and --slo-alerts on) whose trace JSON, flight-recorder
# dumps, and replays must be byte-identical across double runs, a
# legacy-leak check (no trace/alert/exemplar vocabulary in untraced
# output), the bench_trace_overhead zero-cost contract (sim-identical
# replays with tracing on), and a bench_snapshot.sh pass that copies the
# fresh BENCH_*.json into the repo root.
#
# --profile builds normally and then exercises etaprof end to end
# (DESIGN.md section 9): the prof/metrics test binaries, a profiled CLI run
# and a profiled 64-query serve replay (trace JSON round-trip validated,
# with python3 as a second parser when available), a byte-identity diff of
# two identically-seeded profiled runs (trace + Prometheus metrics), and
# the bench_profiler_overhead zero-cost contract.
#
# --digest builds perfbench (through perfbench/run.py, into its own build
# tree) and runs each of its three workloads for one second at seed 1 with
# --digest-out, then diffs every digest against tests/golden/. The digest
# holds every simulated value of a workload's first cycle, so this gate
# makes "simulated numbers byte-identical" a standing check: a host-speed
# change must pass it unchanged, and a model change regenerates the goldens
# (same command, writing into tests/golden/) in the same change.
set -euo pipefail

SANITIZE=0
TSAN=0
FAULTS=0
PROFILE=0
SHARD=0
ASYNC=0
VERIFY=0
OVERLOAD=0
TRACE=0
if [[ "${1:-}" == "--sanitize" ]]; then
  SANITIZE=1
  shift
elif [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--faults" ]]; then
  FAULTS=1
  shift
elif [[ "${1:-}" == "--profile" ]]; then
  PROFILE=1
  shift
elif [[ "${1:-}" == "--shard" ]]; then
  SHARD=1
  shift
elif [[ "${1:-}" == "--async" ]]; then
  ASYNC=1
  shift
elif [[ "${1:-}" == "--verify" ]]; then
  VERIFY=1
  shift
elif [[ "${1:-}" == "--overload" ]]; then
  OVERLOAD=1
  shift
elif [[ "${1:-}" == "--trace" ]]; then
  TRACE=1
  shift
elif [[ "${1:-}" == "--digest" ]]; then
  DIGEST_DIR="$(mktemp -d)"
  trap 'rm -rf "$DIGEST_DIR"' EXIT
  for workload in paper-web serve-session serve-fleet; do
    echo "== digest: $workload (seed 1) =="
    golden="tests/golden/$workload-seed1.txt"
    fresh="$DIGEST_DIR/$workload-seed1.txt"
    if ! python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --digest-out "$fresh" > /dev/null; then
      echo "check.sh: perfbench $workload failed" >&2
      exit 1
    fi
    if ! cmp -s "$golden" "$fresh"; then
      diff -u "$golden" "$fresh" | head -40 >&2 || true
      echo "check.sh: $workload simulated values differ from $golden" >&2
      exit 1
    fi
    echo "-- $workload: digest identical"
  done
  exit 0
fi

if [[ "$SANITIZE" == "1" ]]; then
  BUILD_DIR="${1:-build-asan}"
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DETA_STRICT_WARNINGS=ON \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
elif [[ "$TSAN" == "1" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  SAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DETA_STRICT_WARNINGS=ON \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
else
  BUILD_DIR="${1:-build}"
  cmake -B "$BUILD_DIR" -S . -DETA_STRICT_WARNINGS=ON
fi

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

cmake --build "$BUILD_DIR" -j "$(nproc)" 2>&1 | tee "$LOG"

# eta_serve builds with -Werror, so warnings there already fail the build;
# this catches anything that slips through (e.g. headers included elsewhere).
if grep -E "warning:" "$LOG" | grep -q "serve/"; then
  echo "check.sh: warnings in src/serve/ are not allowed:" >&2
  grep -E "warning:" "$LOG" | grep "serve/" >&2
  exit 1
fi

if [[ "$FAULTS" == "1" ]]; then
  # Fault-model gate: targeted test binaries first (fast, exact), then the
  # CLI matrix — one run per fault class per algorithm family, each of which
  # must recover (exit 0) or report the failure cleanly, never crash.
  "$BUILD_DIR/tests/fault_test"
  "$BUILD_DIR/tests/device_memory_test"

  echo "== CLI fault matrix =="
  for spec in "ecc=0.3" "uecc=0.05" "hang=0.05,watchdog=5" "alloc=0.1"; do
    for algo in bfs sssp sswp; do
      echo "-- etagraph --algo=$algo --faults=seed=3,$spec"
      "$BUILD_DIR/src/etagraph_cli" --dataset=rmat --scale=0.1 --algo="$algo" \
        --framework=etagraph --faults="seed=3,$spec" --verify > /dev/null
    done
  done
  # Device loss at query 2 of a one-shot run is unrecoverable in-session:
  # the CLI must fail loudly (exit 1), not pretend it has an answer.
  if "$BUILD_DIR/src/etagraph_cli" --dataset=rmat --scale=0.1 --algo=bfs \
      --framework=etagraph --faults=lost_at=2 > /dev/null; then
    echo "check.sh: etagraph ignored an injected device loss" >&2
    exit 1
  fi

  echo "== serve fault matrix + replay determinism =="
  REPLAY_DIR="$(mktemp -d)"
  trap 'rm -f "$LOG"; rm -rf "$REPLAY_DIR"' EXIT
  for spec in "ecc=0.3" "uecc=0.05" "hang=0.05,watchdog=5" "lost=0.01" "alloc=0.1" \
              "uecc=0.03,hang=0.02,lost=0.002,alloc=0.05,watchdog=5"; do
    safe="${spec//[^a-zA-Z0-9]/_}"
    for i in 1 2; do
      "$BUILD_DIR/src/etagraph_serve" --dataset=rmat --scale=0.1 --requests=32 \
        --faults="seed=3,$spec" --replay-out="$REPLAY_DIR/$safe.$i.txt" > /dev/null
    done
    if ! diff -u "$REPLAY_DIR/$safe.1.txt" "$REPLAY_DIR/$safe.2.txt"; then
      echo "check.sh: replay diverged for --faults=$spec" >&2
      exit 1
    fi
    echo "-- $spec: replays identical"
  done

  echo "== zero-cost contract =="
  "$BUILD_DIR/bench/bench_fault_overhead" --datasets=rmat --scale=0.25
  exit 0
fi

if [[ "$PROFILE" == "1" ]]; then
  # etaprof gate: targeted test binaries first (exact), then end-to-end runs
  # through both tools with every emitter validated and diffed.
  "$BUILD_DIR/tests/prof_test"
  "$BUILD_DIR/tests/metrics_test"

  PROF_DIR="$(mktemp -d)"
  trap 'rm -f "$LOG"; rm -rf "$PROF_DIR"' EXIT

  validate_json() {
    # Our own strict parser already validated the document before it was
    # written; re-check with an independent parser when one is around.
    if command -v python3 > /dev/null; then
      python3 -m json.tool "$1" > /dev/null
    fi
    [[ -s "$1" ]]
  }

  echo "== profiled CLI run =="
  for i in 1 2; do
    # Drop the lines that echo the (per-run) output paths before diffing.
    "$BUILD_DIR/src/etagraph_cli" --dataset=rmat --scale=0.1 --algo=bfs \
      --profile --trace-json="$PROF_DIR/cli.$i.json" |
      grep -v "$PROF_DIR" > "$PROF_DIR/cli.$i.txt"
  done
  validate_json "$PROF_DIR/cli.1.json"
  grep -q "etaprof kernel summary" "$PROF_DIR/cli.1.txt"
  if ! diff -u "$PROF_DIR/cli.1.json" "$PROF_DIR/cli.2.json" ||
     ! diff -u "$PROF_DIR/cli.1.txt" "$PROF_DIR/cli.2.txt"; then
    echo "check.sh: profiled CLI runs diverged" >&2
    exit 1
  fi
  echo "-- trace valid, summaries identical"

  echo "== profiled 64-query serve replay =="
  for i in 1 2; do
    "$BUILD_DIR/src/etagraph_serve" --dataset=rmat --scale=0.1 --requests=64 \
      --profile --trace-json="$PROF_DIR/serve.$i.json" \
      --metrics-out="$PROF_DIR/serve.$i.prom" |
      grep -v "$PROF_DIR" > "$PROF_DIR/serve.$i.txt"
  done
  validate_json "$PROF_DIR/serve.1.json"
  grep -q "^serve_queue_wait_ms_bucket" "$PROF_DIR/serve.1.prom"
  grep -q "^serve_service_ms_bucket" "$PROF_DIR/serve.1.prom"
  grep -q "^serve_cost_error_ms" "$PROF_DIR/serve.1.prom"
  if ! diff -u "$PROF_DIR/serve.1.json" "$PROF_DIR/serve.2.json" ||
     ! diff -u "$PROF_DIR/serve.1.prom" "$PROF_DIR/serve.2.prom" ||
     ! diff -u "$PROF_DIR/serve.1.txt" "$PROF_DIR/serve.2.txt"; then
    echo "check.sh: profiled serve replays diverged" >&2
    exit 1
  fi
  echo "-- trace + metrics valid, replays identical"

  echo "== zero-cost contract =="
  "$BUILD_DIR/bench/bench_profiler_overhead" --datasets=rmat --scale=0.25
  exit 0
fi

if [[ "$SHARD" == "1" ]]; then
  # Sharded-fleet gate: targeted test binaries first (exact), then the
  # end-to-end matrix through etagraph_serve.
  "$BUILD_DIR/tests/serve_test"
  "$BUILD_DIR/tests/router_test"

  SHARD_DIR="$(mktemp -d)"
  trap 'rm -f "$LOG"; rm -rf "$SHARD_DIR"' EXIT

  echo "== max-batch past the attribution cap (wave-split regression) =="
  # Batches wider than the 32-source attribution cap must wave-split, never
  # abort, and answer byte-identically to a capped run of the same trace.
  for mb in 64 32; do
    "$BUILD_DIR/src/etagraph_serve" --dataset=rmat --scale=0.1 --requests=64 \
      --mean-arrival=0.05 --max-batch="$mb" \
      --replay-out="$SHARD_DIR/mb$mb.txt" > /dev/null
  done
  if ! diff -u "$SHARD_DIR/mb32.txt" "$SHARD_DIR/mb64.txt"; then
    echo "check.sh: --max-batch=64 replay diverged from --max-batch=32" >&2
    exit 1
  fi
  echo "-- no abort, replay identical to the capped run"

  echo "== shards x faults matrix + replay determinism =="
  REQS=48
  for shards in 2 4; do
    for spec in "none" "lost=0.01" \
                "uecc=0.03,hang=0.02,lost=0.002,alloc=0.05,watchdog=5"; do
      args=(--dataset=rmat --scale=0.1 --requests="$REQS" --mean-arrival=0.1
            --queue-cap="$REQS" --shards="$shards")
      label="shards=$shards faults=$spec"
      if [[ "$spec" != "none" ]]; then
        args+=(--faults="seed=3,$spec")
      fi
      safe="${label//[^a-zA-Z0-9]/_}"
      for i in 1 2; do
        "$BUILD_DIR/src/etagraph_serve" "${args[@]}" \
          --replay-out="$SHARD_DIR/$safe.$i.txt" > /dev/null
      done
      if ! diff -u "$SHARD_DIR/$safe.1.txt" "$SHARD_DIR/$safe.2.txt"; then
        echo "check.sh: sharded replay diverged for $label" >&2
        exit 1
      fi
      # No admitted request may be lost: every trace entry has a terminal
      # outcome, and with ample queues none of them is a rejection.
      outcomes="$(grep -cv '^#' "$SHARD_DIR/$safe.1.txt")"
      if [[ "$outcomes" != "$REQS" ]]; then
        echo "check.sh: $label: $outcomes outcomes for $REQS requests" >&2
        exit 1
      fi
      if grep -q " rejected " "$SHARD_DIR/$safe.1.txt"; then
        echo "check.sh: $label: rejected requests with an ample queue" >&2
        exit 1
      fi
      echo "-- $label: replays identical, all $REQS requests completed"
    done
  done

  echo "== single engine = one-shard fleet =="
  # The single engine is the fleet loop at one shard; with its batch window
  # closed its replay must match --shards=1 byte for byte, faults included.
  for spec in "none" "lost=0.01"; do
    args=(--dataset=rmat --scale=0.1 --requests="$REQS" --mean-arrival=0.1
          --queue-cap="$REQS")
    if [[ "$spec" != "none" ]]; then
      args+=(--faults="seed=3,$spec")
    fi
    safe="one_shard_${spec//[^a-zA-Z0-9]/_}"
    "$BUILD_DIR/src/etagraph_serve" "${args[@]}" --window=0 \
      --replay-out="$SHARD_DIR/$safe.single.txt" > /dev/null
    "$BUILD_DIR/src/etagraph_serve" "${args[@]}" --shards=1 \
      --replay-out="$SHARD_DIR/$safe.fleet.txt" > /dev/null
    if ! diff -u "$SHARD_DIR/$safe.single.txt" "$SHARD_DIR/$safe.fleet.txt"; then
      echo "check.sh: --window=0 replay diverged from --shards=1 (faults=$spec)" >&2
      exit 1
    fi
    echo "-- faults=$spec: single engine replay identical to one shard"
  done

  echo "== fleet-scaling contract =="
  # A small dataset keeps the gate fast; the 4-shard >= 2x 1-shard exit
  # gate inside the bench is what matters here, not the absolute numbers.
  "$BUILD_DIR/bench/bench_serve_throughput" --datasets=rmat --scale=0.1 \
    --requests=32 --json="$SHARD_DIR/BENCH_serve.json"
  exit 0
fi

if [[ "$ASYNC" == "1" ]]; then
  # Stream-dispatcher gate: the stream/event test binary first (exact),
  # then the end-to-end contracts through etagraph_serve.
  "$BUILD_DIR/tests/stream_test"

  ASYNC_DIR="$(mktemp -d)"
  trap 'rm -f "$LOG"; rm -rf "$ASYNC_DIR"' EXIT

  echo "== prestage-off vs async replay identity (shards x faults, single graph) =="
  # On a single-graph catalog prestaging never fires, so an --async replay
  # must reproduce the prestage-off replay byte for byte — faults included
  # (decisions are drawn at functional execution, identically in both
  # schedules). The async replay must also be deterministic across two
  # runs.
  REQS=48
  for shards in 1 2 4; do
    for spec in "none" "lost=0.01" \
                "uecc=0.03,hang=0.02,lost=0.002,alloc=0.05,watchdog=5"; do
      args=(--dataset=rmat --scale=0.1 --requests="$REQS" --mean-arrival=0.1
            --queue-cap="$REQS" --shards="$shards")
      label="shards=$shards faults=$spec"
      if [[ "$spec" != "none" ]]; then
        args+=(--faults="seed=3,$spec")
      fi
      safe="${label//[^a-zA-Z0-9]/_}"
      "$BUILD_DIR/src/etagraph_serve" "${args[@]}" \
        --replay-out="$ASYNC_DIR/$safe.sync.txt" > /dev/null
      for i in 1 2; do
        "$BUILD_DIR/src/etagraph_serve" "${args[@]}" --async \
          --replay-out="$ASYNC_DIR/$safe.async.$i.txt" > /dev/null
      done
      if ! diff -u "$ASYNC_DIR/$safe.sync.txt" "$ASYNC_DIR/$safe.async.1.txt"; then
        echo "check.sh: async replay diverged from sync for $label" >&2
        exit 1
      fi
      if ! diff -u "$ASYNC_DIR/$safe.async.1.txt" "$ASYNC_DIR/$safe.async.2.txt"; then
        echo "check.sh: async replay nondeterministic for $label" >&2
        exit 1
      fi
      echo "-- $label: async replay identical to prestage-off, deterministic"
    done
  done

  echo "== multi-graph replay golden (prestage off) =="
  # Staging, LRU eviction and reloads under a budget, faults, rebuilds and
  # a dead shard: the prestage-off multi-graph timing is pinned byte for
  # byte. A dispatcher change that moves any timestamp fails here; an
  # intended model change regenerates the golden with this command.
  "$BUILD_DIR/src/etagraph_serve" --dataset=slashdot --scale=0.1 --shards=2 --catalog=3 \
    --device-mem-budget=400000 --requests=300 --mean-arrival=0.3 --queue-cap=300 \
    --faults=seed=4,uecc=0.02,lost=0.002,hang=0.01 \
    --replay-out="$ASYNC_DIR/multigraph.txt" > /dev/null
  if ! diff -u tests/golden/replay-shards2-catalog3.txt "$ASYNC_DIR/multigraph.txt"; then
    echo "check.sh: multi-graph replay differs from tests/golden/replay-shards2-catalog3.txt" >&2
    exit 1
  fi
  echo "-- shards=2 catalog=3 budget faults: replay identical to golden"

  echo "== staging-overlap throughput contract =="
  # The bench's own exit gates enforce answer identity sync vs async and a
  # throughput lift on at least one staging-heavy mix.
  "$BUILD_DIR/bench/bench_overlap_serve" --scale=0.1 --requests=96 \
    --json="$ASYNC_DIR/BENCH_overlap_serve.json"
  exit 0
fi

if [[ "$VERIFY" == "1" ]]; then
  # etaverify gate: the verifier test binary first (exact), then the
  # planted-bug and clean matrices through etagraph_serve. Every planted
  # run must keep its replay byte-identical to the healthy run — the
  # plants are timing-luck defects the dynamic diffs cannot see — while
  # the static verifier reports them and fails the process.
  "$BUILD_DIR/tests/verify_test"

  VERIFY_DIR="$(mktemp -d)"
  trap 'rm -f "$LOG"; rm -rf "$VERIFY_DIR"' EXIT

  CATALOG_ARGS=(--dataset=rmat --scale=0.1 --requests=60 --mean-arrival=0.01
                --queue-cap=60 --shards=1 --catalog=3 --async)

  echo "== planted-bug matrix (plant x algorithm) =="
  declare -A EXPECT=(
    [drop-ready-wait]="race-read-write use-before-ready"
    [swap-record-wait]="wait-unrecorded"
    [double-prestage]="race-write-write"
  )
  for algo_frac in "--bfs-frac=1 --sssp-frac=0" "--bfs-frac=0 --sssp-frac=1"; do
    # Healthy baseline for this trace mix: must verify clean, and its
    # replay is the byte-identity reference for every plant below.
    frac_safe="${algo_frac//[^a-zA-Z0-9]/_}"
    # shellcheck disable=SC2086
    "$BUILD_DIR/src/etagraph_serve" "${CATALOG_ARGS[@]}" --verify-dag $algo_frac \
      --replay-out="$VERIFY_DIR/healthy.$frac_safe.txt" > /dev/null
    for plant in drop-ready-wait swap-record-wait double-prestage; do
      label="plant=$plant $algo_frac"
      safe="${label//[^a-zA-Z0-9]/_}"
      # shellcheck disable=SC2086
      if "$BUILD_DIR/src/etagraph_serve" "${CATALOG_ARGS[@]}" --verify-dag \
          --plant="$plant" $algo_frac \
          --replay-out="$VERIFY_DIR/$safe.txt" > "$VERIFY_DIR/$safe.out"; then
        echo "check.sh: $label was not reported (exit 0)" >&2
        exit 1
      fi
      for kind in ${EXPECT[$plant]}; do
        if ! grep -q "ERROR \[etaverify\] $kind" "$VERIFY_DIR/$safe.out"; then
          echo "check.sh: $label missing expected finding '$kind':" >&2
          cat "$VERIFY_DIR/$safe.out" >&2
          exit 1
        fi
      done
      # The plant must be invisible to the dynamic replay: byte-identical
      # outcomes, only the static verifier's verdict differs.
      if ! diff -u "$VERIFY_DIR/healthy.$frac_safe.txt" "$VERIFY_DIR/$safe.txt"; then
        echo "check.sh: $label perturbed the replay" >&2
        exit 1
      fi
      echo "-- $label: reported (${EXPECT[$plant]}), replay untouched"
    done
  done

  echo "== clean matrix (shards x faults, multi-graph, prestage on and off) =="
  for shards in 1 2 4 2-noprestage; do
    for spec in "none" "lost=0.01" \
                "uecc=0.03,hang=0.02,lost=0.002,alloc=0.05,watchdog=5"; do
      args=(--dataset=rmat --scale=0.1 --requests=48 --mean-arrival=0.1
            --queue-cap=48 --shards="${shards%-noprestage}" --catalog=2 --verify-dag)
      # Without --async every dispatch still records its stream DAG.
      if [[ "$shards" != *-noprestage ]]; then
        args+=(--async)
      fi
      label="shards=$shards faults=$spec"
      if [[ "$spec" != "none" ]]; then
        args+=(--faults="seed=3,$spec")
      fi
      safe="${label//[^a-zA-Z0-9]/_}"
      for i in 1 2; do
        if ! "$BUILD_DIR/src/etagraph_serve" "${args[@]}" \
            --verify-json="$VERIFY_DIR/$safe.$i.json" > /dev/null; then
          echo "check.sh: false positive — $label failed verification" >&2
          cat "$VERIFY_DIR/$safe.$i.json" >&2
          exit 1
        fi
      done
      # A clean verdict over an empty log proves nothing.
      if grep -q '"ops_checked": 0,' "$VERIFY_DIR/$safe.1.json"; then
        echo "check.sh: $label recorded no stream ops" >&2
        exit 1
      fi
      # The verifier's verdict is a pure function of the DAG: two runs of
      # one configuration must emit byte-identical reports.
      if ! diff -u "$VERIFY_DIR/$safe.1.json" "$VERIFY_DIR/$safe.2.json"; then
        echo "check.sh: verifier report nondeterministic for $label" >&2
        exit 1
      fi
      echo "-- $label: clean, report deterministic"
    done
  done
  exit 0
fi

if [[ "$OVERLOAD" == "1" ]]; then
  # Overload-control gate: targeted test binaries first (exact), then the
  # end-to-end open-loop matrix through etagraph_serve with the full
  # control stack engaged, then the calibrated-capacity bench gates.
  "$BUILD_DIR/tests/overload_test"
  "$BUILD_DIR/tests/router_test"

  OV_DIR="$(mktemp -d)"
  trap 'rm -f "$LOG"; rm -rf "$OV_DIR"' EXIT

  echo "== open-loop matrix (arrivals x shards x faults) + replay determinism =="
  # Every cell runs the whole stack: SLO admission with per-class targets,
  # brownout + shed ladders, fleet retry budget, per-shard breaker. Two
  # runs must replay byte-identically, and every generated request must
  # have exactly one terminal outcome (ok / degraded / shedded / rejected /
  # timed out) — overload may refuse work, never lose it.
  REQS=48
  for shards in 1 4; do
    for spec in "none" "uecc=0.03,hang=0.02,lost=0.002,alloc=0.05,watchdog=5"; do
      args=(--dataset=slashdot --shards="$shards" --queue-cap="$REQS"
            --arrivals="poisson:rate=4000,n=$REQS,gold=0.2,silver=0.3"
            --slo-shed --slo-targets=50,200,1000 --shed-backlog=20,40
            --brownout=10,30 --retry-budget=50,10 --breaker=5,2)
      label="shards=$shards faults=$spec"
      if [[ "$spec" != "none" ]]; then
        args+=(--faults="seed=3,$spec")
      fi
      safe="${label//[^a-zA-Z0-9]/_}"
      for i in 1 2; do
        "$BUILD_DIR/src/etagraph_serve" "${args[@]}" \
          --replay-out="$OV_DIR/$safe.$i.txt" > /dev/null
      done
      if ! diff -u "$OV_DIR/$safe.1.txt" "$OV_DIR/$safe.2.txt"; then
        echo "check.sh: overload replay diverged for $label" >&2
        exit 1
      fi
      outcomes="$(grep -cv '^#' "$OV_DIR/$safe.1.txt")"
      if [[ "$outcomes" != "$REQS" ]]; then
        echo "check.sh: $label: $outcomes outcomes for $REQS requests" >&2
        exit 1
      fi
      echo "-- $label: replays identical, all $REQS requests accounted for"
    done
  done

  echo "== edf x memo x autoscale matrix + replay determinism =="
  # The million-user scheduler additions obey the same accounting contract:
  # EDF pop order, the whole-graph memo, and backlog autoscaling (fleets
  # only — a single shard has nothing to scale) must replay byte-identically
  # and never lose a request.
  for shards in 1 4; do
    for profile in "poisson:rate=4000" "bursty:rate=4000,on=5,off=10"; do
      args=(--dataset=slashdot --shards="$shards" --queue-cap="$REQS"
            --arrivals="$profile,n=$REQS,gold=0.2,silver=0.3,cc=0.15,pr=0.1"
            --slo-shed --slo-targets=50,200,1000 --shed-backlog=20,40
            --brownout=10,30 --edf --memo-window=50)
      if [[ "$shards" -gt 1 ]]; then
        args+=(--autoscale=1,20)
      fi
      label="edf+memo shards=$shards profile=${profile%%:*}"
      safe="${label//[^a-zA-Z0-9]/_}"
      for i in 1 2; do
        "$BUILD_DIR/src/etagraph_serve" "${args[@]}" \
          --replay-out="$OV_DIR/$safe.$i.txt" > /dev/null
      done
      if ! diff -u "$OV_DIR/$safe.1.txt" "$OV_DIR/$safe.2.txt"; then
        echo "check.sh: edf/memo/autoscale replay diverged for $label" >&2
        exit 1
      fi
      outcomes="$(grep -cv '^#' "$OV_DIR/$safe.1.txt")"
      if [[ "$outcomes" != "$REQS" ]]; then
        echo "check.sh: $label: $outcomes outcomes for $REQS requests" >&2
        exit 1
      fi
      echo "-- $label: replays identical, all $REQS requests accounted for"
    done
  done

  echo "== legacy byte-stability (no overload flags => no overload output) =="
  # A classless run must not mention the overload machinery anywhere: the
  # new report rows, JSON keys, and metric families appear only when the
  # feature is active.
  "$BUILD_DIR/src/etagraph_serve" --dataset=rmat --scale=0.1 --requests=32 \
    --metrics-out="$OV_DIR/legacy.prom" > "$OV_DIR/legacy.txt"
  if grep -Eiq "slo|shed|brownout|breaker|retry_budget|memo|edf|autoscale|scale_event|shards_active|deadline" \
      "$OV_DIR/legacy.txt" "$OV_DIR/legacy.prom"; then
    echo "check.sh: overload output leaked into a legacy run:" >&2
    grep -Ein "slo|shed|brownout|breaker|retry_budget|memo|edf|autoscale|scale_event|shards_active|deadline" \
      "$OV_DIR/legacy.txt" "$OV_DIR/legacy.prom" >&2
    exit 1
  fi
  echo "-- legacy run clean"

  echo "== calibrated-capacity contract =="
  # The bench's own exit gates enforce completeness, bounded queues, and
  # gold goodput >= 95% at 0.8x / 1.2x / 2.0x calibrated capacity, plus
  # byte-identical double runs at every multiple.
  "$BUILD_DIR/bench/bench_overload" --requests=240 \
    --json="$OV_DIR/BENCH_overload.json"
  exit 0
fi

if [[ "$TRACE" == "1" ]]; then
  # etatrace gate: the trace/flight-recorder/alert test binary first
  # (exact), then the end-to-end traced matrix through etagraph_serve.
  "$BUILD_DIR/tests/trace_test"

  TRACE_DIR="$(mktemp -d)"
  trap 'rm -f "$LOG"; rm -rf "$TRACE_DIR"' EXIT

  echo "== traced matrix (shards x faults x arrivals) + double-run identity =="
  # Every cell runs overloaded with the full stack on plus tracing, the
  # flight recorder, and burn-rate alerts. The per-request trace JSON, the
  # blackbox dumps, and the replay must all come back byte-identical on a
  # second run — causality that does not replay is not causality.
  REQS=48
  for shards in 1 4; do
    for spec in "none" "uecc=0.03,hang=0.02,lost=0.002,alloc=0.05,watchdog=5"; do
      args=(--dataset=slashdot --shards="$shards" --queue-cap="$REQS"
            --arrivals="poisson:rate=4000,n=$REQS,gold=0.2,silver=0.3"
            --slo-shed --slo-targets=50,200,1000 --shed-backlog=20,40
            --brownout=10,30 --trace-requests --slo-alerts)
      label="shards=$shards faults=$spec"
      if [[ "$spec" != "none" ]]; then
        args+=(--faults="seed=3,$spec")
      fi
      safe="${label//[^a-zA-Z0-9]/_}"
      for i in 1 2; do
        "$BUILD_DIR/src/etagraph_serve" "${args[@]}" \
          --trace-request-out="$TRACE_DIR/$safe.$i.trace.json" \
          --blackbox-out="$TRACE_DIR/$safe.$i.blackbox.txt" \
          --replay-out="$TRACE_DIR/$safe.$i.replay.txt" > /dev/null
      done
      for artifact in trace.json blackbox.txt replay.txt; do
        if ! diff -u "$TRACE_DIR/$safe.1.$artifact" "$TRACE_DIR/$safe.2.$artifact"; then
          echo "check.sh: $artifact diverged across runs for $label" >&2
          exit 1
        fi
      done
      if command -v python3 > /dev/null; then
        python3 -m json.tool "$TRACE_DIR/$safe.1.trace.json" > /dev/null
      fi
      # One span tree per generated request, and the always-on recorder
      # left at least the end-of-replay snapshot.
      traces="$(grep -c '"id":' "$TRACE_DIR/$safe.1.trace.json")"
      if [[ "$traces" != "$REQS" ]]; then
        echo "check.sh: $label: $traces span trees for $REQS requests" >&2
        exit 1
      fi
      grep -q "# flight-recorder dump:" "$TRACE_DIR/$safe.1.blackbox.txt"
      echo "-- $label: trace/blackbox/replay identical, $traces span trees"
    done
  done

  echo "== traced CLI retry timeline + double-run identity =="
  for i in 1 2; do
    "$BUILD_DIR/src/etagraph_cli" --dataset=rmat --scale=0.1 --algo=bfs \
      --framework=etagraph --faults="seed=3,uecc=0.05" \
      --trace-requests --trace-request-out="$TRACE_DIR/cli.$i.json" \
      --blackbox-out="$TRACE_DIR/cli.$i.blackbox.txt" |
      grep -v "$TRACE_DIR" > "$TRACE_DIR/cli.$i.txt"
  done
  for artifact in json blackbox.txt txt; do
    if ! diff -u "$TRACE_DIR/cli.1.$artifact" "$TRACE_DIR/cli.2.$artifact"; then
      echo "check.sh: CLI trace artifact .$artifact diverged across runs" >&2
      exit 1
    fi
  done
  grep -q "etatrace attempt timeline" "$TRACE_DIR/cli.1.txt"
  echo "-- CLI attempt timeline deterministic"

  echo "== legacy-leak check (features off => no trace vocabulary) =="
  "$BUILD_DIR/src/etagraph_serve" --dataset=rmat --scale=0.1 --requests=32 \
    --metrics-out="$TRACE_DIR/legacy.prom" > "$TRACE_DIR/legacy.txt"
  if grep -Eq "traced|exemplar|serve_alert|blackbox|burn-rate|burn_rate" \
      "$TRACE_DIR/legacy.txt" "$TRACE_DIR/legacy.prom"; then
    echo "check.sh: trace output leaked into an untraced run:" >&2
    grep -En "traced|exemplar|serve_alert|blackbox|burn-rate|burn_rate" \
      "$TRACE_DIR/legacy.txt" "$TRACE_DIR/legacy.prom" >&2
    exit 1
  fi
  echo "-- legacy run clean"

  echo "== zero-cost contract =="
  # The bench's own exit gates enforce sim-identical replays with tracing
  # on (replay text, makespan, fault counters, Prometheus prefix) and
  # byte-identical traces across double runs.
  "$BUILD_DIR/bench/bench_trace_overhead" --datasets=rmat --scale=0.1 \
    --requests=64 --json="$BUILD_DIR/BENCH_trace_overhead.json"
  scripts/bench_snapshot.sh "$BUILD_DIR"
  exit 0
fi

# Lint gates the default build only; the sanitizer trees run the same
# sources under the same profile, so re-linting them is pure duplication.
if [[ "$SANITIZE" == "0" && "$TSAN" == "0" ]]; then
  scripts/lint.sh "$BUILD_DIR"
fi
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
