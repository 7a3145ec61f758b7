#!/usr/bin/env bash
# Pre-merge correctness gate for the mmWave scheduler.
#
# Builds and tests the tree under a matrix of analysis configurations and
# exits non-zero if ANY leg fails:
#
#   1. RelWithDebInfo, -Werror            full ctest suite
#   2. ASan + UBSan, -Werror              full ctest suite under sanitizers
#   3. clang-tidy over src/               zero findings allowed
#                                         (skipped loudly if the tool is not
#                                          installed; see .clang-tidy)
#   4. certificate verifier               mmwave_cli check on the seed
#                                         Fig. 1 / Fig. 4 scenarios, run on
#                                         the *sanitized* binaries
#   5. ThreadSanitizer                    thread-pool + warm-equivalence
#                                         tests and a --threads bench smoke
#                                         under MMWAVE_SANITIZE=thread
#   6. perf bench                         perf_solvers + perf_resolve
#                                         (google-benchmark) on the plain
#                                         build; writes BENCH_cg.json
#                                         (warm/cold CG master comparison)
#                                         and BENCH_resolve.json (checkpoint
#                                         restart/repair economics)
#   7. robustness                         fault-injection + anytime-contract
#                                         + checkpoint/resolve suites
#                                         and the simplex/LU suites (their
#                                         sparse index bookkeeping) re-run
#                                         under ASan+UBSan, plus the
#                                         instance-spec and checkpoint fuzz
#                                         harnesses (a 30 s libFuzzer run
#                                         each when a clang fuzzer build
#                                         exists, the deterministic
#                                         corpus-replay battery otherwise)
#   8. coverage                           gcov line-coverage gate: Debug +
#                                         MMWAVE_COVERAGE=ON build, full
#                                         ctest, then tools/coverage_report.py
#                                         fails if src/core or src/stream
#                                         drops below the floors recorded in
#                                         tools/coverage_baseline.txt
#   9. project lint                       tools/lint/project_lint.py — the
#                                         repo's own invariants made static:
#                                         [[nodiscard]] Status discipline,
#                                         the DESIGN §7 no-throw boundary,
#                                         the determinism contract, and the
#                                         fault-site registry cross-check
#                                         (zero findings allowed; DESIGN §10)
#  10. chaos soak                         tools/chaos_soak on the sanitized
#                                         build: seeded kill/restart sessions
#                                         resumed from their checkpoint file
#                                         must match the uninterrupted runs
#                                         to 1e-7 (digest chains
#                                         bit-identical), including legs with
#                                         failed saves, saves torn before
#                                         the rename and corrupted cursors;
#                                         writes BENCH_soak.json with the
#                                         saves and bytes per seed
#  11. fleet gate                          the multi-piconet serve mode on the
#                                         sanitized build: the fleet server
#                                         ctest suites, the
#                                         chaos_soak --fleet drain/restart
#                                         sweep (records must match the
#                                         uninterrupted fleet exactly across
#                                         poison / overflow / drain-crash
#                                         legs), and perf_fleet, which both
#                                         measures req/s + latency quantiles
#                                         and enforces record-equality across
#                                         worker counts; writes
#                                         BENCH_fleet.json
#  12. QoE gate                           the client-buffer sessions on the
#                                         sanitized build: the ClientBuffer /
#                                         DemandPolicy / BlockageSession
#                                         suites, then perf_qoe, which is
#                                         both the stall-reduction bench and
#                                         its own acceptance gate (drain-risk
#                                         must strictly beat blind on enough
#                                         seeds with no stall or layer-ratio
#                                         regression); writes BENCH_qoe.json
#
# Usage:  tools/run_analysis.sh [--fast|--robustness|--coverage|--lint|--soak|--fleet|--qoe]
#   --fast        skip legs 1, 6 and 8 (the plain build, the perf bench and
#                 the coverage gate) — the sanitized legs still run the full
#                 suite, so this is the quick pre-push variant.
#   --robustness  the CI degraded-path gate: build the ASan+UBSan tree and
#                 run only legs 4 and 7 (certificate verifier + fault/fuzz
#                 batteries).  Skips the full sanitized ctest sweep, the
#                 plain build, clang-tidy, TSan, the perf bench and coverage.
#   --coverage    the CI coverage gate: run only leg 8 (instrumented build +
#                 full ctest + coverage_report.py against the recorded
#                 floors).
#   --lint        the CI static-analysis gate: run only legs 3 and 9
#                 (clang-tidy + project lint).  Configures a build tree for
#                 the compilation database but compiles nothing.
#   --soak        the CI crash-recovery gate: build the ASan+UBSan tree and
#                 run only leg 10 (the chaos-soak driver, deeper seed sweep
#                 than the smoke ctest) plus the checkpoint-log suites.
#   --fleet       the CI fleet gate: build the ASan+UBSan tree and run only
#                 leg 11 (fleet suites + chaos_soak --fleet with
#                 a deeper seed sweep + perf_fleet).
#   --qoe         the CI QoE gate: build the ASan+UBSan tree and run only
#                 leg 12 (buffer/policy/session suites + perf_qoe with a
#                 deeper seed sweep than the smoke ctest).
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
ROBUSTNESS=0
COVERAGE_ONLY=0
LINT_ONLY=0
SOAK_ONLY=0
FLEET_ONLY=0
QOE_ONLY=0
case "${1:-}" in
  --fast) FAST=1 ;;
  --robustness) ROBUSTNESS=1 ;;
  --coverage) COVERAGE_ONLY=1 ;;
  --lint) LINT_ONLY=1 ;;
  --soak) SOAK_ONLY=1 ;;
  --fleet) FLEET_ONLY=1 ;;
  --qoe) QOE_ONLY=1 ;;
esac

failures=()
note() { printf '\n==== %s ====\n' "$*"; }
leg_failed() { failures+=("$1"); printf 'LEG FAILED: %s\n' "$1" >&2; }

configure_and_build() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$ROOT" -DMMWAVE_WERROR=ON "$@" || return 1
  cmake --build "$dir" -j "$JOBS" || return 1
}

run_ctest() {
  local dir="$1"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
}

# ---- Leg 1: plain RelWithDebInfo + Werror ---------------------------------
if [[ "$FAST" == 0 && "$ROBUSTNESS" == 0 && "$COVERAGE_ONLY" == 0 \
      && "$LINT_ONLY" == 0 && "$SOAK_ONLY" == 0 && "$FLEET_ONLY" == 0 \
      && "$QOE_ONLY" == 0 ]]; then
  note "leg 1: RelWithDebInfo + -Werror"
  if configure_and_build "$ROOT/build-analysis-rel" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo; then
    run_ctest "$ROOT/build-analysis-rel" || leg_failed "ctest (RelWithDebInfo)"
  else
    leg_failed "build (RelWithDebInfo + Werror)"
  fi
else
  note "leg 1 skipped"
fi

# ---- Leg 2: ASan + UBSan --------------------------------------------------
note "leg 2: AddressSanitizer + UndefinedBehaviorSanitizer + -Werror"
ASAN_DIR="$ROOT/build-analysis-asan"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
if [[ "$COVERAGE_ONLY" == 1 || "$LINT_ONLY" == 1 ]]; then
  echo "leg 2 skipped (--coverage/--lint)"
elif configure_and_build "$ASAN_DIR" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "-DMMWAVE_SANITIZE=address;undefined"; then
  if [[ "$ROBUSTNESS" == 0 && "$SOAK_ONLY" == 0 && "$FLEET_ONLY" == 0 \
        && "$QOE_ONLY" == 0 ]]; then
    run_ctest "$ASAN_DIR" || leg_failed "ctest (ASan+UBSan)"
  else
    echo "(--robustness/--soak/--fleet/--qoe: full sanitized ctest sweep skipped; later legs use this build)"
  fi
else
  leg_failed "build (ASan+UBSan)"
fi

# ---- Leg 3: clang-tidy over src/ ------------------------------------------
note "leg 3: clang-tidy"
if [[ "$ROBUSTNESS" == 1 || "$COVERAGE_ONLY" == 1 || "$SOAK_ONLY" == 1 \
      || "$FLEET_ONLY" == 1 || "$QOE_ONLY" == 1 ]]; then
  echo "leg 3 skipped"
elif command -v clang-tidy > /dev/null 2>&1; then
  TIDY_DIR="$ASAN_DIR"
  [[ -d "$ROOT/build-analysis-rel" && "$FAST" == 0 ]] && TIDY_DIR="$ROOT/build-analysis-rel"
  if [[ "$LINT_ONLY" == 1 ]]; then
    # --lint skips the sanitized build; configure (not compile) a plain
    # tree so the tidy target has a compilation database to run against.
    TIDY_DIR="$ROOT/build-analysis-rel"
    cmake -B "$TIDY_DIR" -S "$ROOT" -DMMWAVE_WERROR=ON \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null \
      || leg_failed "configure (clang-tidy compilation database)"
  fi
  cmake --build "$TIDY_DIR" -j "$JOBS" --target tidy || leg_failed "clang-tidy"
else
  echo "clang-tidy not found on PATH -- static-analysis leg SKIPPED" >&2
  echo "(install clang-tidy to make this gate complete)" >&2
fi

# ---- Leg 4: certificate verifier on the seed figure scenarios -------------
# Runs on the sanitized binary: the verifier exercises the full CG pipeline,
# so this leg doubles as a deep sanitizer workout of the hot path.
note "leg 4: solver certificate verifier (mmwave_cli check)"
CLI="$ASAN_DIR/tools/mmwave_cli"
if [[ "$COVERAGE_ONLY" == 1 || "$LINT_ONLY" == 1 || "$SOAK_ONLY" == 1 \
      || "$FLEET_ONLY" == 1 || "$QOE_ONLY" == 1 ]]; then
  echo "leg 4 skipped (--coverage/--lint/--soak/--fleet/--qoe)"
elif [[ -x "$CLI" ]]; then
  # Fig. 1 scenario family: Table I ladder, K = 5, hybrid pricing.
  "$CLI" check --links=10 --channels=5 --seed=1 \
    || leg_failed "verifier (Fig. 1 scenario)"
  # Fig. 4 convergence scenario: binding interference, exact pricing.
  "$CLI" check --links=8 --channels=2 --levels=3 --gamma-scale=3 \
    --pricing=exact --seed=1 \
    || leg_failed "verifier (Fig. 4 scenario)"
else
  leg_failed "verifier (mmwave_cli missing: sanitized build failed?)"
fi

# ---- Leg 5: ThreadSanitizer over the parallel paths -----------------------
# The thread pool and the warm-equivalence pipeline are the two places data
# races could hide; run exactly those tests (plus a --threads bench smoke)
# under TSan rather than the whole suite — TSan slows everything ~10x.
note "leg 5: ThreadSanitizer (thread pool + warm equivalence)"
TSAN_DIR="$ROOT/build-analysis-tsan"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
if [[ "$ROBUSTNESS" == 1 || "$COVERAGE_ONLY" == 1 || "$LINT_ONLY" == 1 \
      || "$SOAK_ONLY" == 1 || "$FLEET_ONLY" == 1 || "$QOE_ONLY" == 1 ]]; then
  echo "leg 5 skipped"
elif configure_and_build "$TSAN_DIR" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "-DMMWAVE_SANITIZE=thread"; then
  (cd "$TSAN_DIR" && ctest --output-on-failure -j "$JOBS" \
      -R 'ThreadPool|ParallelFor|ResolveThreads|WarmEquivalence|SimplexWarm') \
    || leg_failed "ctest (TSan: parallel paths)"
  FIG1="$TSAN_DIR/bench/fig1_sched_time"
  if [[ -x "$FIG1" ]]; then
    "$FIG1" --links=8 --seeds=4 --threads=2 --gamma-scale=1 > /dev/null \
      || leg_failed "fig1_sched_time --threads=2 under TSan"
  else
    leg_failed "fig1_sched_time missing (TSan build incomplete?)"
  fi
else
  leg_failed "build (TSan)"
fi

# ---- Leg 6: perf bench (BENCH_cg.json) ------------------------------------
# The warm/cold CG master comparison the PR-level perf claims come from,
# plus the revised-vs-dense simplex engine and Dantzig-vs-steepest pricing
# arms (BM_RevisedVsDense{,Warm}, BM_SimplexPricing) — perf_solvers runs
# its full suite, so new arms land in BENCH_cg.json automatically.
# A missing binary is a failure, not a skip: the bench target silently
# falling out of the build would otherwise go unnoticed.
if [[ "$FAST" == 0 && "$ROBUSTNESS" == 0 && "$COVERAGE_ONLY" == 0 \
      && "$LINT_ONLY" == 0 && "$SOAK_ONLY" == 0 && "$FLEET_ONLY" == 0 \
      && "$QOE_ONLY" == 0 ]]; then
  note "leg 6: perf bench (perf_solvers -> BENCH_cg.json, perf_resolve -> BENCH_resolve.json)"
  PERF="$ROOT/build-analysis-rel/bench/perf_solvers"
  if [[ -x "$PERF" ]]; then
    "$PERF" --benchmark_min_time=0.1 \
        --benchmark_out="$ROOT/BENCH_cg.json" --benchmark_out_format=json \
      || leg_failed "perf_solvers"
    [[ -s "$ROOT/BENCH_cg.json" ]] || leg_failed "BENCH_cg.json not written"
  else
    leg_failed "perf_solvers missing (bench targets fell out of the build?)"
  fi
  PERF_RESOLVE="$ROOT/build-analysis-rel/bench/perf_resolve"
  if [[ -x "$PERF_RESOLVE" ]]; then
    "$PERF_RESOLVE" --benchmark_min_time=0.1 \
        --benchmark_out="$ROOT/BENCH_resolve.json" --benchmark_out_format=json \
      || leg_failed "perf_resolve"
    [[ -s "$ROOT/BENCH_resolve.json" ]] || leg_failed "BENCH_resolve.json not written"
  else
    leg_failed "perf_resolve missing (bench targets fell out of the build?)"
  fi
else
  note "leg 6 skipped"
fi

# ---- Leg 7: robustness (fault injection + fuzz) ---------------------------
# Re-run the degraded-path suites under the sanitized build: every fault
# scenario must return a verifier-clean incumbent without tripping ASan or
# UBSan on the error paths (the places instrumentation matters most, since
# ordinary runs rarely take them).  The Simplex*/LuFactor suites ride along:
# the sparse LU's index bookkeeping (row stamps, position heap, touched
# lists) is otherwise sanitized only by the full leg-2 sweep, which the
# robustness CI job skips.
note "leg 7: robustness (fault-injection + checkpoint suites, both fuzz harnesses)"

# run_fuzz <name> <corpus-dir>: libFuzzer with a bounded budget on a clang
# -DMMWAVE_FUZZ=ON build, the deterministic corpus-replay battery otherwise.
run_fuzz() {
  local name="$1" corpus="$2"
  local bin="$ASAN_DIR/tests/fuzz/$name"
  if [[ ! -x "$bin" ]]; then
    leg_failed "$name missing (sanitized build incomplete?)"
    return
  fi
  if "$bin" -help=1 > /dev/null 2>&1 && \
     "$bin" -help=1 2>/dev/null | grep -q libFuzzer; then
    "$bin" -max_total_time=30 "$corpus" \
      || leg_failed "libFuzzer ($name, 30 s)"
  else
    "$bin" "$corpus"/* \
      || leg_failed "fuzz corpus replay ($name)"
  fi
}

if [[ "$COVERAGE_ONLY" == 1 || "$LINT_ONLY" == 1 || "$SOAK_ONLY" == 1 \
      || "$FLEET_ONLY" == 1 || "$QOE_ONLY" == 1 ]]; then
  echo "leg 7 skipped (--coverage/--lint/--soak/--fleet/--qoe)"
elif [[ -d "$ASAN_DIR" ]]; then
  (cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS" \
      -R 'CgAnytime|Theorem1Guard|MilpLimits|FaultInjector|InstanceValidator|ParseInstanceSpec|CgCheckpoint|CheckpointLog|CgResolve|BlockageSession|Simplex|LuFactor|cli_smoke') \
    || leg_failed "ctest (robustness suites under ASan+UBSan)"
  run_fuzz instance_spec_fuzz "$ROOT/tests/fuzz/corpus"
  run_fuzz checkpoint_fuzz "$ROOT/tests/fuzz/corpus_checkpoint"
else
  leg_failed "robustness (sanitized build dir missing)"
fi

# ---- Leg 8: coverage gate --------------------------------------------------
# Instrumented Debug build + full suite, then gcov aggregation over src/core
# and src/stream against the floors in tools/coverage_baseline.txt.  The
# floors are a ratchet: they record the coverage the tree actually has, so a
# PR that adds untested solver/session code fails here before review.
if [[ "$FAST" == 0 && "$ROBUSTNESS" == 0 && "$LINT_ONLY" == 0 \
      && "$SOAK_ONLY" == 0 && "$FLEET_ONLY" == 0 && "$QOE_ONLY" == 0 ]]; then
  note "leg 8: coverage gate (gcov, src/core + src/stream floors)"
  COV_DIR="$ROOT/build-analysis-cov"
  if configure_and_build "$COV_DIR" \
        -DCMAKE_BUILD_TYPE=Debug -DMMWAVE_COVERAGE=ON; then
    # Stale counters from a previous run would inflate the numbers.
    find "$COV_DIR" -name '*.gcda' -delete
    run_ctest "$COV_DIR" || leg_failed "ctest (coverage build)"
    python3 "$ROOT/tools/coverage_report.py" --build "$COV_DIR" --root "$ROOT" \
      || leg_failed "coverage below recorded floors (tools/coverage_baseline.txt)"
  else
    leg_failed "build (coverage)"
  fi
else
  note "leg 8 skipped"
fi

# ---- Leg 9: project-invariant lint ----------------------------------------
# The repo's own contracts, machine-checked (DESIGN §10): [[nodiscard]]
# Status discipline, the §7 no-throw boundary, the determinism contract,
# and the fault-site registry.  Pure python3 over the sources — no build
# needed — so it runs in every mode except the narrowly-scoped CI gates.
if [[ "$ROBUSTNESS" == 0 && "$COVERAGE_ONLY" == 0 && "$SOAK_ONLY" == 0 \
      && "$FLEET_ONLY" == 0 && "$QOE_ONLY" == 0 ]]; then
  note "leg 9: project lint (tools/lint/project_lint.py)"
  if command -v python3 > /dev/null 2>&1; then
    python3 "$ROOT/tools/lint/project_lint.py" --root "$ROOT" \
      || leg_failed "project lint (tools/lint/project_lint.py)"
  else
    leg_failed "project lint (python3 not found)"
  fi
else
  note "leg 9 skipped"
fi

# ---- Leg 10: chaos soak (crash-recovery property) --------------------------
# Seeded kill/restart sessions resumed from their checkpoint file must
# match the uninterrupted runs exactly (1e-7 per record, digest chains
# bit-identical) with the registered fault sites firing.  Runs on the
# sanitized build so the recovery paths are instrumented; --soak sweeps
# more seeds than the default pre-merge pass.
if [[ "$FAST" == 0 && "$ROBUSTNESS" == 0 && "$COVERAGE_ONLY" == 0 \
      && "$LINT_ONLY" == 0 && "$FLEET_ONLY" == 0 && "$QOE_ONLY" == 0 ]]; then
  note "leg 10: chaos soak (tools/chaos_soak -> BENCH_soak.json)"
  SOAK="$ASAN_DIR/tools/chaos_soak"
  SOAK_SEEDS=5
  [[ "$SOAK_ONLY" == 1 ]] && SOAK_SEEDS=10
  if [[ -x "$SOAK" ]]; then
    if [[ "$SOAK_ONLY" == 1 ]]; then
      (cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS" \
          -R 'CheckpointLog|CgCheckpoint|BlockageSession|chaos_soak_smoke|cli_smoke') \
        || leg_failed "ctest (checkpoint-log + session suites under ASan+UBSan)"
    fi
    SOAK_DIR="$ASAN_DIR/soak-work"
    mkdir -p "$SOAK_DIR"
    "$SOAK" --seeds="$SOAK_SEEDS" --gops=10 --dir="$SOAK_DIR" \
        --out="$ROOT/BENCH_soak.json" \
      || leg_failed "chaos_soak (resumed runs diverged from uninterrupted)"
    [[ -s "$ROOT/BENCH_soak.json" ]] || leg_failed "BENCH_soak.json not written"
  else
    leg_failed "chaos_soak missing (sanitized build incomplete?)"
  fi
else
  note "leg 10 skipped"
fi

# ---- Leg 11: fleet gate (serve mode) ---------------------------------------
# The multi-piconet serve mode end to end on the sanitized build: the fleet
# server unit suites, the chaos_soak --fleet drain/restart
# sweep (the fleet analogue of leg 10: resumed record streams must match the
# uninterrupted ones exactly, with the fleet fault sites firing), and
# perf_fleet, which is both the throughput/latency bench and the cross-worker
# record-equality check.  --fleet sweeps more seeds than the pre-merge pass.
if [[ "$ROBUSTNESS" == 0 && "$COVERAGE_ONLY" == 0 && "$LINT_ONLY" == 0 \
      && "$SOAK_ONLY" == 0 && "$QOE_ONLY" == 0 ]]; then
  note "leg 11: fleet gate (fleet suites + chaos_soak --fleet + perf_fleet -> BENCH_fleet.json)"
  FLEET_SEEDS=4
  [[ "$FLEET_ONLY" == 1 ]] && FLEET_SEEDS=8
  if [[ "$FLEET_ONLY" == 1 ]]; then
    (cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS" \
        -R 'FleetServer|FleetRequest|chaos_soak_fleet_smoke|bench_fleet_smoke|cli_smoke') \
      || leg_failed "ctest (fleet suites under ASan+UBSan)"
  fi
  FLEET_SOAK="$ASAN_DIR/tools/chaos_soak"
  if [[ -x "$FLEET_SOAK" ]]; then
    FLEET_DIR="$ASAN_DIR/fleet-work"
    mkdir -p "$FLEET_DIR"
    "$FLEET_SOAK" --fleet --seeds="$FLEET_SEEDS" --requests=9 \
        --dir="$FLEET_DIR" \
      || leg_failed "chaos_soak --fleet (drained fleets diverged from uninterrupted)"
  else
    leg_failed "chaos_soak missing (sanitized build incomplete?)"
  fi
  PERF_FLEET="$ASAN_DIR/bench/perf_fleet"
  if [[ -x "$PERF_FLEET" ]]; then
    "$PERF_FLEET" --requests=24 --workers=1,4,16 \
        --out="$ROOT/BENCH_fleet.json" \
      || leg_failed "perf_fleet (records diverged across worker counts)"
    [[ -s "$ROOT/BENCH_fleet.json" ]] || leg_failed "BENCH_fleet.json not written"
  else
    leg_failed "perf_fleet missing (bench targets fell out of the build?)"
  fi
else
  note "leg 11 skipped"
fi

# ---- Leg 12: QoE gate (client-buffer sessions) -----------------------------
# The buffer/policy/session suites plus perf_qoe on the sanitized build.
# perf_qoe is its own acceptance gate: the drain-risk demand policy must
# STRICTLY reduce stall seconds on enough seeded traces, never regress any
# seed's stall, and hold every layer-delivery ratio no worse than blind's.
# --qoe sweeps more seeds/GOPs than the pre-merge pass.
if [[ "$ROBUSTNESS" == 0 && "$COVERAGE_ONLY" == 0 && "$LINT_ONLY" == 0 \
      && "$SOAK_ONLY" == 0 && "$FLEET_ONLY" == 0 ]]; then
  note "leg 12: QoE gate (buffer suites + perf_qoe -> BENCH_qoe.json)"
  QOE_SEEDS=8
  QOE_GOPS=24
  if [[ "$QOE_ONLY" == 1 ]]; then
    QOE_SEEDS=12
    QOE_GOPS=32
    (cd "$ASAN_DIR" && ctest --output-on-failure -j "$JOBS" \
        -R 'ClientBuffer|DemandPolicy|BlockageSession|bench_perf_qoe_smoke|cli_smoke') \
      || leg_failed "ctest (buffer/policy/session suites under ASan+UBSan)"
  fi
  PERF_QOE="$ASAN_DIR/bench/perf_qoe"
  if [[ -x "$PERF_QOE" ]]; then
    "$PERF_QOE" --seeds="$QOE_SEEDS" --gops="$QOE_GOPS" --min-improved=3 \
        --out="$ROOT/BENCH_qoe.json" \
      || leg_failed "perf_qoe (drain-risk failed its stall/layer-ratio gate)"
    [[ -s "$ROOT/BENCH_qoe.json" ]] || leg_failed "BENCH_qoe.json not written"
  else
    leg_failed "perf_qoe missing (bench targets fell out of the build?)"
  fi
else
  note "leg 12 skipped"
fi

# ---- Summary --------------------------------------------------------------
note "summary"
if (( ${#failures[@]} )); then
  printf 'ANALYSIS FAILED (%d leg(s)):\n' "${#failures[@]}"
  printf '  - %s\n' "${failures[@]}"
  exit 1
fi
echo "all analysis legs passed"
