#!/usr/bin/env bash
# Builds everything and reproduces the full evaluation:
#   1. the test suite (unit + integration + property),
#   2. every paper figure/example reproduction binary (exit non-zero on any
#      deviation from the paper),
#   3. the scalability/ablation benchmarks (a quick look; no figures are
#      recorded),
#   4. the runnable examples.
#
# Performance is recorded by the repository benchmark alone:
# `python3 repobench/run.py` (workloads and metrics in BENCHMARK.json).
#
# Usage: scripts/run_all.sh [build-dir]
#        scripts/run_all.sh asan [build-dir]
#        scripts/run_all.sh tsan [build-dir]
#        scripts/run_all.sh ubsan [build-dir]
#        scripts/run_all.sh crash [build-dir]
#        scripts/run_all.sh iofault [seconds] [build-dir]
#        scripts/run_all.sh fuzz [seconds] [build-dir]
#        scripts/run_all.sh obs [build-dir] [off-build-dir]
#        scripts/run_all.sh epoch [seconds] [build-dir]
#        scripts/run_all.sh serve [seconds] [build-dir]
#
# The `asan` mode builds with -DTYDER_SANITIZE=address,undefined (default
# build dir: build-asan) and runs the tier-1 test suite — including the
# fault-injection/rollback tests — under ASan+UBSan.
#
# The `tsan` mode builds with -DTYDER_SANITIZE=thread (default build dir:
# build-tsan) and runs the concurrency-sensitive suites — the dispatch-index
# tests, the subtype-closure cache tests, the shared schema tables (readers
# of published epochs against the writer tip), the oracle and obs stress
# tests, the epoch catalog, and the server, net fault-matrix and chaos
# suites — under ThreadSanitizer.
#
# The `ubsan` mode builds with -DTYDER_SANITIZE=undefined alone (default
# build dir: build-ubsan) and runs the full tier-1 suite — catches UB that
# ASan's instrumentation can mask, and exercises the snapshot/WAL binary
# parsers under strict bounds/alignment checking.
#
# The `crash` mode runs the in-process crash-injection suite and then an
# out-of-process matrix: for every storage.* fault point `tyderc` reports,
# a real tyderc process is killed mid-operation via TYDER_FAULTS and the
# database directory must recover on the next open.
#
# The `iofault` mode is the storage robustness gate (docs/ROBUSTNESS.md):
# the Env contract tests, the degraded-mode suite, and the exhaustive
# FaultyEnv call-site × fault-kind × power-loss matrix, followed by an
# out-of-process check that a WAL fsync failure drops tyderc into degraded
# mode with exit code 3, and a time-boxed fuzz campaign (default 60 s) whose
# op mix includes the envfault op.
#
# The `fuzz` mode replays the checked-in regression corpus and then runs a
# time-boxed differential fuzzing campaign (default 30 s; pass a number of
# seconds as the first argument) with the operation-sequence fuzzer. See
# docs/TESTING.md for the seed/replay/shrink workflow.
#
# The `obs` mode is the observability layer's own gate
# (docs/OBSERVABILITY.md): it builds with -DTYDER_OBS=OFF (default build
# dir: build-obs-off) and asserts the metrics/flight-recorder symbols are
# really absent from tyderc, then compares the shared hot-path benches in
# bench_obs between the OFF and ON builds — the always-on instrumentation
# must cost less than 5%.
#
# The `serve` mode is the serving-layer robustness gate
# (docs/ROBUSTNESS.md "Serving and overload"): it runs the net unit and
# fault-matrix suites, boots a real tyderd with --admin on an ephemeral
# port, drives a time-boxed chaos campaign (default 30 s) against it with
# the full net.* fault family plus storage.env.sync faults, and requires
# the acked/nacked ledger and the differential oracle to verify clean over
# the wire; after the campaign the daemon must still answer health and shut
# down cleanly on SIGTERM, and the database directory must reopen healthy.
# A second leg re-runs the net concurrency suites under ThreadSanitizer.
#
# The `epoch` mode is the MVCC + group-commit concurrency gate
# (docs/PERFORMANCE.md "Schema epochs and group commit"): it builds with
# ThreadSanitizer and runs the epoch reclamation suite, the epoch-churn
# oracle stress (readers pin snapshots while a writer commits past them),
# the concurrent group-commit corpus trace, and a time-boxed fuzz campaign
# whose op mix includes the concommit op — all under TSan.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=all
if [ "${1:-}" = "bench" ]; then
  # No bench mode: repobench is the perf record. Refuse rather than fall
  # through and configure a build in the bench/ source directory.
  echo "run_all.sh: the bench mode is retired; measure with" \
    "'python3 repobench/run.py' (see BENCHMARK.json)" >&2
  exit 2
elif [ "${1:-}" = "scenarios" ]; then
  # Likewise retired: the scenario packs replay as fuzz-corpus traces.
  echo "run_all.sh: the scenarios mode is retired; the scenario traces" \
    "replay in FuzzCorpusTest (see docs/TESTING.md)" >&2
  exit 2
elif [ "${1:-}" = "asan" ]; then
  MODE=asan
  shift
elif [ "${1:-}" = "tsan" ]; then
  MODE=tsan
  shift
elif [ "${1:-}" = "ubsan" ]; then
  MODE=ubsan
  shift
elif [ "${1:-}" = "crash" ]; then
  MODE=crash
  shift
elif [ "${1:-}" = "iofault" ]; then
  MODE=iofault
  shift
elif [ "${1:-}" = "fuzz" ]; then
  MODE=fuzz
  shift
elif [ "${1:-}" = "obs" ]; then
  MODE=obs
  shift
elif [ "${1:-}" = "epoch" ]; then
  MODE=epoch
  shift
elif [ "${1:-}" = "serve" ]; then
  MODE=serve
  shift
fi

if [ "$MODE" = "asan" ]; then
  BUILD="${1:-build-asan}"
  cmake -B "$BUILD" -G Ninja -DTYDER_SANITIZE=address,undefined
  cmake --build "$BUILD"
  echo "=== tests (ASan+UBSan) ==="
  ctest --test-dir "$BUILD" --output-on-failure
  echo "ASAN GREEN"
  exit 0
fi

if [ "$MODE" = "tsan" ]; then
  BUILD="${1:-build-tsan}"
  cmake -B "$BUILD" -G Ninja -DTYDER_SANITIZE=thread
  cmake --build "$BUILD"
  echo "=== tests (TSan) ==="
  ctest --test-dir "$BUILD" --output-on-failure \
    -R 'DispatchIndex|SubtypeCache|SchemaSharing|OracleStress|ObsStress|EpochCatalog|ServerTest|NetFaultMatrix|ChaosTest'
  echo "TSAN GREEN"
  exit 0
fi

if [ "$MODE" = "serve" ]; then
  SECONDS_BUDGET="${1:-30}"
  BUILD="${2:-build}"
  TSAN_BUILD="${3:-build-tsan}"
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD"
  echo "=== net unit + fault-matrix suites ==="
  ctest --test-dir "$BUILD" --output-on-failure \
    -R 'FrameTest|ProtocolTest|ServerTest|NetFaultMatrix|ChaosTest'
  echo "=== out-of-process chaos campaign ($((SECONDS_BUDGET))s) ==="
  DB="$(mktemp -d)/db"
  DAEMON_LOG="$(mktemp)"
  "$BUILD/tools/tyderd" --db "$DB" examples/payroll.tdl --admin \
    > "$DAEMON_LOG" 2>&1 &
  DAEMON_PID=$!
  # tyderd prints "LISTENING <port>" once the accept loop is up; an
  # ephemeral port means parallel CI runs never collide.
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(grep -aoE '^LISTENING [0-9]+' "$DAEMON_LOG" | awk '{print $2}' || true)"
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || {
      echo "ERROR: tyderd died before listening" >&2
      cat "$DAEMON_LOG" >&2
      exit 1
    }
    sleep 0.1
  done
  if [ -z "$PORT" ]; then
    echo "ERROR: tyderd never reported LISTENING" >&2
    kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
  fi
  set +e
  "$BUILD/tests/tyder_chaos" --port "$PORT" --duration-ms \
    $((SECONDS_BUDGET * 1000)) --net-faults --storage-faults
  rc=$?
  set -e
  if [ "$rc" -ne 0 ]; then
    echo "ERROR: chaos campaign exited $rc" >&2
    kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
  fi
  # Graceful shutdown: SIGTERM must take the daemon down cleanly (exit 0)
  # within its poll tick, not leave it to be KILLed.
  kill -TERM "$DAEMON_PID"
  DAEMON_RC=0
  wait "$DAEMON_PID" || DAEMON_RC=$?
  if [ "$DAEMON_RC" -ne 0 ]; then
    echo "ERROR: tyderd exited $DAEMON_RC on SIGTERM, want 0" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
  fi
  # Everything the campaign acked must have survived the restart boundary:
  # the directory reopens healthy (recovery replays the WAL tail).
  "$BUILD/tools/tyderc" --db "$DB" --health | grep -q "state: healthy" || {
    echo "ERROR: db did not reopen healthy after the campaign" >&2
    exit 1
  }
  rm -rf "$(dirname "$DB")" "$DAEMON_LOG"
  echo "=== net concurrency suites (TSan) ==="
  cmake -B "$TSAN_BUILD" -G Ninja -DTYDER_SANITIZE=thread
  cmake --build "$TSAN_BUILD"
  ctest --test-dir "$TSAN_BUILD" --output-on-failure \
    -R 'ServerTest|NetFaultMatrix|ChaosTest'
  echo "SERVE GREEN"
  exit 0
fi

if [ "$MODE" = "epoch" ]; then
  SECONDS_BUDGET="${1:-30}"
  BUILD="${2:-build-tsan}"
  cmake -B "$BUILD" -G Ninja -DTYDER_SANITIZE=thread
  cmake --build "$BUILD"
  echo "=== epoch lifecycle + churn stress (TSan) ==="
  ctest --test-dir "$BUILD" --output-on-failure -R 'EpochCatalog|OracleStress'
  echo "=== concurrent group-commit corpus (TSan) ==="
  "$BUILD/tests/tyder_fuzz" --replay tests/fuzz/corpus/seq-026-concommit.trace
  echo "=== concommit fuzz campaign (TSan, ${SECONDS_BUDGET}s) ==="
  "$BUILD/tests/tyder_fuzz" --seconds "$SECONDS_BUDGET"
  echo "EPOCH GREEN"
  exit 0
fi

if [ "$MODE" = "ubsan" ]; then
  BUILD="${1:-build-ubsan}"
  cmake -B "$BUILD" -G Ninja -DTYDER_SANITIZE=undefined
  cmake --build "$BUILD"
  echo "=== tests (UBSan) ==="
  ctest --test-dir "$BUILD" --output-on-failure
  echo "UBSAN GREEN"
  exit 0
fi

if [ "$MODE" = "crash" ]; then
  BUILD="${1:-build}"
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD"
  echo "=== in-process crash matrix ==="
  ctest --test-dir "$BUILD" --output-on-failure \
    -R 'CrashMatrix|Wal|DurableCatalog|AllOrNothing|Transaction'
  echo "=== out-of-process crash matrix ==="
  TYDERC="$BUILD/tools/tyderc"
  TDL=examples/payroll.tdl
  for point in $("$TYDERC" --list-faults | grep '^storage\.'); do
    echo "--- $point"
    DB="$(mktemp -d)/db"
    FLIGHT="$(mktemp -d)"
    "$TYDERC" "$TDL" --db "$DB" > /dev/null
    # The armed fault aborts the mutating op (and, for the compact points,
    # the compaction) partway through its disk protocol — the process exits
    # non-zero with the directory in whatever state the "crash" left it.
    # TYDER_FLIGHT_DIR makes the fault hit ship a flight-recorder dump.
    case "$point" in
      # storage.env.rename / sync_dir / truncate sit on Compact's publish
      # protocol and never fire during a WAL append (see the scenario map in
      # tests/storage/crash_matrix_test.cc).
      storage.compact.*|storage.env.rename|storage.env.sync_dir|storage.env.truncate)
        if TYDER_FAULTS="$point" TYDER_FLIGHT_DIR="$FLIGHT" \
             "$TYDERC" --db "$DB" --compact > /dev/null 2>&1; then
          echo "ERROR: fault $point did not fire" >&2
          exit 1
        fi ;;
      *)
        if TYDER_FAULTS="$point" TYDER_FLIGHT_DIR="$FLIGHT" \
             "$TYDERC" --db "$DB" \
             --project Employee SSN,pay_rate CrashView > /dev/null 2>&1; then
          echo "ERROR: fault $point did not fire" >&2
          exit 1
        fi ;;
    esac
    # The killed process must have left a parseable tyder-flight-v1 dump
    # recording the armed point — the crash's black box.
    python3 - "$FLIGHT" "$point" <<'PY'
import glob, json, sys
files = sorted(glob.glob(sys.argv[1] + "/flight-*.json"))
assert files, "no flight dump written"
want = "failpoint:" + sys.argv[2]
found = False
for path in files:
    with open(path) as f:
        dump = json.load(f)  # raises on unparseable JSON
    assert dump["schema"] == "tyder-flight-v1", (path, dump.get("schema"))
    if dump["reason"] == want and any(
            e["kind"] == "failpoint"
            for t in dump["threads"] for e in t["events"]):
        found = True
assert found, "no dump records " + want
PY
    # Recovery: the next open must succeed and land on a valid catalog.
    "$TYDERC" --db "$DB" > /dev/null
    rm -rf "$(dirname "$DB")" "$FLIGHT"
  done
  echo "CRASH GREEN"
  exit 0
fi

if [ "$MODE" = "iofault" ]; then
  SECONDS_BUDGET="${1:-60}"
  BUILD="${2:-build}"
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD"
  echo "=== Env contract + degraded mode + I/O fault matrix ==="
  ctest --test-dir "$BUILD" --output-on-failure \
    -R 'PosixEnv|WritableFile|FaultyEnv|DegradedMode|IoFaultMatrix|CrashMatrix'
  echo "=== out-of-process degraded exit code ==="
  TYDERC="$BUILD/tools/tyderc"
  DB="$(mktemp -d)/db"
  "$TYDERC" examples/payroll.tdl --db "$DB" > /dev/null
  # A WAL fsync failure must refuse the mutation, report degraded mode, and
  # exit with the dedicated code 3 (0 and 1 both mean something else).
  set +e
  TYDER_FAULTS="storage.env.sync=1" \
    "$TYDERC" --db "$DB" --project Employee SSN,pay_rate FaultView \
    > /dev/null 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 3 ]; then
    echo "ERROR: degraded mutation exited $rc, want 3" >&2
    exit 1
  fi
  # The fsync lie is per-process: a fresh open re-validates the directory.
  "$TYDERC" --db "$DB" --health | grep -q "state: healthy" || {
    echo "ERROR: db did not re-validate to healthy after the faulted run" >&2
    exit 1
  }
  rm -rf "$(dirname "$DB")"
  echo "=== env-fault fuzz campaign (${SECONDS_BUDGET}s) ==="
  "$BUILD/tests/tyder_fuzz" --seconds "$SECONDS_BUDGET"
  echo "IOFAULT GREEN"
  exit 0
fi

if [ "$MODE" = "fuzz" ]; then
  SECONDS_BUDGET="${1:-30}"
  BUILD="${2:-build}"
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD"
  echo "=== corpus replay ==="
  ctest --test-dir "$BUILD" --output-on-failure -R 'FuzzCorpus'
  echo "=== fuzz campaign (${SECONDS_BUDGET}s) ==="
  "$BUILD/tests/tyder_fuzz" --seconds "$SECONDS_BUDGET"
  echo "FUZZ GREEN"
  exit 0
fi

if [ "$MODE" = "obs" ]; then
  BUILD="${1:-build}"
  OFF_BUILD="${2:-build-obs-off}"
  echo "=== TYDER_OBS=OFF build ==="
  cmake -B "$OFF_BUILD" -G Ninja -DTYDER_OBS=OFF
  cmake --build "$OFF_BUILD" --target tyderc bench_obs
  # The OFF build must really compile the metrics layer out: tyderc keeps
  # the tracer (available in both modes) but must reference no counters,
  # histograms, flight recorder, or snapshotter.
  if nm -C "$OFF_BUILD/tools/tyderc" \
       | grep -E 'FlightRecorder|StatsSnapshotter|MetricsRegistry|ShardedCounter'; then
    echo "ERROR: TYDER_OBS=OFF tyderc still links observability symbols" >&2
    exit 1
  fi
  echo "no observability symbols in OFF tyderc"
  echo "=== TYDER_OBS=ON build ==="
  cmake -B "$BUILD" -G Ninja
  cmake --build "$BUILD" --target bench_obs
  # Overhead gate: the hot-path benches bench_obs builds in BOTH modes must
  # cost at most 5% more with the instrumentation on. The ON-only micro
  # benches pair with nothing in the OFF report and show up as NEW, which
  # bench_compare never fails on.
  # Same alternating min-of-N protocol as the recorded reports: a single
  # shot of each side against a tight 5% threshold is at the mercy of host
  # noise (one bad scheduler window on a shared vCPU swings a 90us bench
  # 10-30%), so each side is measured five times, interleaved OFF/ON so
  # drift hits both sides, and the per-benchmark min goes to the gate.
  collect_obs_report() {  # <bench-binary> <out-json>
    "$1" --benchmark_min_time=0.5 \
      | grep -a 'BENCHJSON: ' \
      | sed 's/^.*BENCHJSON: //' \
      | python3 -c 'import json, sys
benches = [json.loads(l) for l in sys.stdin if l.strip()]
json.dump({"schema": "tyder-bench-v1", "benches": benches}, sys.stdout)
print()' > "$2"
  }
  merge_min() {  # <run1-json> <run2-json> <out-json>
    python3 -c 'import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
other = {(bench["bench"], r["name"]): r
         for bench in b["benches"] for r in bench["results"]}
for bench in a["benches"]:
    for r in bench["results"]:
        o = other.get((bench["bench"], r["name"]))
        if o is None:
            continue
        rt, ot = r.get("cpu_time_ns"), o.get("cpu_time_ns")
        if isinstance(rt, (int, float)) and isinstance(ot, (int, float)) \
                and ot < rt:
            r.update(o)
json.dump(a, sys.stdout)
print()' "$1" "$2" > "$3"
  }
  OFF_JSON="$(mktemp --suffix=.json)"
  ON_JSON="$(mktemp --suffix=.json)"
  OFF_RUN="$(mktemp --suffix=.json)"
  ON_RUN="$(mktemp --suffix=.json)"
  for sweep in 1 2 3 4 5; do
    echo "--- bench_obs (OFF, sweep $sweep/5)"
    collect_obs_report "$OFF_BUILD/bench/bench_obs" "$OFF_RUN"
    if [ "$sweep" = 1 ]; then cp "$OFF_RUN" "$OFF_JSON"
    else merge_min "$OFF_JSON" "$OFF_RUN" "$OFF_JSON.next" && mv "$OFF_JSON.next" "$OFF_JSON"; fi
    echo "--- bench_obs (ON, sweep $sweep/5)"
    collect_obs_report "$BUILD/bench/bench_obs" "$ON_RUN"
    if [ "$sweep" = 1 ]; then cp "$ON_RUN" "$ON_JSON"
    else merge_min "$ON_JSON" "$ON_RUN" "$ON_JSON.next" && mv "$ON_JSON.next" "$ON_JSON"; fi
  done
  echo "=== overhead (ON vs OFF, min-of-5, 5% gate) ==="
  python3 scripts/bench_compare.py "$OFF_JSON" "$ON_JSON" --threshold 5
  rm -f "$OFF_RUN" "$ON_RUN" "$OFF_JSON" "$ON_JSON"
  echo "OBS GREEN"
  exit 0
fi

BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

echo "=== tests ==="
ctest --test-dir "$BUILD" --output-on-failure

echo "=== paper artifact reproductions ==="
for b in "$BUILD"/bench/bench_fig* "$BUILD"/bench/bench_example*; do
  echo "--- $b"
  "$b"
done

echo "=== benchmarks ==="
for b in "$BUILD"/bench/bench_*_scale "$BUILD"/bench/bench_dispatch \
         "$BUILD"/bench/bench_views_over_views "$BUILD"/bench/bench_subtype_cache \
         "$BUILD"/bench/bench_query; do
  echo "--- $b"
  "$b" --benchmark_min_time=0.02
done

echo "=== examples ==="
for e in "$BUILD"/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "--- $e"
  "$e"
done

echo "ALL GREEN"
