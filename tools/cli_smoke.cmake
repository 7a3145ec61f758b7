# Exit-status contract smoke test for mmwave_cli (run by ctest as
# `cmake -DCLI=<binary> -DWORK_DIR=<dir> -P cli_smoke.cmake`).
#
# The contract under test (DESIGN.md section 7):
#   0  success
#   1  verification found violations / unknown command
#   2  invalid input (malformed flags or instance spec)
#   3  solve degraded (deadline, stall, solver breakdown)
#
# PASS_REGULAR_EXPRESSION cannot assert exit codes, hence this script:
# each case runs the CLI and compares the real exit status (and, where it
# matters, stderr) against the contract.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to mmwave_cli>")
endif()
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR "${CMAKE_CURRENT_BINARY_DIR}")
endif()

set(failures 0)

# run(<expected-exit> <output-must-match-or-empty> args...)
# The regex is matched against stdout + stderr combined (errors go to
# stderr, the DEGRADED status line to stdout).
function(run expected out_regex)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 120)
  if(NOT code STREQUAL "${expected}")
    message(SEND_ERROR
      "mmwave_cli ${ARGN}: expected exit ${expected}, got '${code}'\n"
      "stdout: ${out}\nstderr: ${err}")
    math(EXPR failures "${failures}+1")
    set(failures ${failures} PARENT_SCOPE)
    return()
  endif()
  if(NOT out_regex STREQUAL "" AND NOT "${out}${err}" MATCHES "${out_regex}")
    message(SEND_ERROR
      "mmwave_cli ${ARGN}: output does not match '${out_regex}'\n"
      "stdout: ${out}\nstderr: ${err}")
    math(EXPR failures "${failures}+1")
    set(failures ${failures} PARENT_SCOPE)
  endif()
endfunction()

# --- exit 0: clean runs -----------------------------------------------------
run(0 "" solve --links=4 --channels=2 --pricing=heuristic)
run(0 "" help)

# --- master-LP pricing rule: --pricing combines the CG mode with the simplex
# rule as comma-separated tokens; --profile reports the rule that ran plus
# the basis-engine work counters.
run(0 "" solve --links=4 --channels=2 --pricing=dantzig)
run(0 "" solve --links=4 --channels=2 --pricing=heuristic,steepest)
run(0 "lp engine +pricing=steepest-edge.*ftran.*btran.*refactorizations"
    solve --links=4 --channels=2 --pricing=heuristic,steepest --profile)
run(0 "lp engine +pricing=dantzig"
    solve --links=4 --channels=2 --pricing=heuristic --profile)
# The certification MILP's branch-and-bound work: at least one node, and
# the counters print even when every node LP started feasible.
run(0 "milp b&b +[1-9][0-9]* nodes, [0-9]+ node-LP pivots"
    solve --links=4 --channels=2 --profile)
# Its model skeleton, built once per solve: the build time and the pair
# power solves of the conflict-cut discovery.
run(0 "milp skeleton +[0-9.]+ ms \\([1-9][0-9]* pair power solves\\)"
    solve --links=4 --channels=2 --profile)
run(2 "error: --pricing: expected heuristic\\|hybrid\\|exact"
    solve --links=4 --pricing=hybrid,quantum)

# --- exit 1: unknown command ------------------------------------------------
run(1 "" frobnicate)

# --- exit 2: malformed flags, one-line error on stderr ----------------------
run(2 "error: .*expected an integer" solve --links=lots)
run(2 "error: .*out of range"        solve --links=0)
run(2 "error: .*out of range"        solve --links=4 --channels=-3)
run(2 "error: "                      solve --links=4 --pricing=quantum)
run(2 "error: .*expected a number"   solve --links=4 --gamma-scale=big)
run(2 "error: .*out of range"        solve --links=4 --deadline=-1)
run(2 "error: "                      stream --links=4 --channels=2 --p-block=2)
run(2 "error: .*expected an integer" check --links=4 --seed=1.5)
# --warm-start is 0 or 1: "yes" used to read as 0 (a silent cold run) and
# any other integer as 1.
run(2 "error: --warm-start: expected an integer"
    solve --links=4 --channels=2 --seed=3 --warm-start=yes)
run(2 "error: --warm-start: .*out of range"
    solve --links=4 --channels=2 --seed=3 --warm-start=2)

# --- exit 2: a flag the command does not accept is named before any work ----
# (a typo like --linkz used to solve the default instance and exit 0).
run(2 "error: unknown flag --bogus, --linkz"
    solve --links=4 --linkz=40 --bogus)
run(2 "error: unknown flag --gops"    compare --links=4 --gops=3)
run(2 "error: unknown flag --profile" stream --links=4 --gops=2 --profile)
run(2 "error: unknown flag --resume"
    resolve --checkpoint=${WORK_DIR}/unused.ckpt --links=4 --resume)
run(2 "error: unknown flag --csv"     check --links=4 --csv=plan.csv)
# So is an argument after the command name.
run(2 "error: unexpected argument 'stray'"
    solve --links=4 --channels=2 stray)

# --- exit 2: malformed instance spec files ----------------------------------
file(WRITE "${WORK_DIR}/bad_spec.txt" "links = twenty\n")
run(2 "error: .*instance spec line 1" solve --instance=${WORK_DIR}/bad_spec.txt)
file(WRITE "${WORK_DIR}/bad_key.txt" "links = 4\nwat = 1\n")
run(2 "error: .*unknown key"          solve --instance=${WORK_DIR}/bad_key.txt)
run(2 "error: "                       solve --instance=${WORK_DIR}/no_such_file.txt)

# --- exit 0: a well-formed instance spec actually drives the solve ----------
file(WRITE "${WORK_DIR}/good_spec.txt"
  "# tiny instance\nlinks = 4\nchannels = 2\nlevels = 2\nseed = 3\n")
run(0 "" solve --instance=${WORK_DIR}/good_spec.txt --pricing=heuristic)

# --- checkpoint / resume / resolve ------------------------------------------
# solve --checkpoint persists the pool; --resume seeds it back when the
# fingerprint matches and reports the seeded columns.  resolve on a
# perturbed instance solves cold: only a checkpoint of the very same
# instance seeds.  A corrupt checkpoint degrades to a cold start with exit
# 0 — robustness means the file can never make the solve fail.
set(CKPT "${WORK_DIR}/smoke.ckpt")
file(REMOVE "${CKPT}")
run(0 "checkpoint written to"
    solve --links=4 --channels=2 --seed=3 --checkpoint=${CKPT})
if(NOT EXISTS "${CKPT}")
  message(SEND_ERROR "solve --checkpoint did not write ${CKPT}")
  math(EXPR failures "${failures}+1")
endif()
run(0 "checkpoint: same instance, [1-9][0-9]* columns seeded"
    solve --links=4 --channels=2 --seed=3 --checkpoint=${CKPT} --resume)
run(0 "checkpoint: unusable, cold start \\(checkpoint fingerprint differs"
    resolve --checkpoint=${CKPT} --links=4 --channels=2 --seed=3
            --block-links=0 --block-atten=0.05)
run(2 "error: --resume requires --checkpoint"
    solve --links=4 --channels=2 --resume)
run(2 "error: resolve requires --checkpoint"
    resolve --links=4 --channels=2)
# Every --block-links token must be an integer: a non-numeric token used to
# block link 0.
run(2 "error: --block-links: expected a comma-separated integer list"
    resolve --checkpoint=${CKPT} --links=4 --channels=2 --seed=3
            --block-links=x)
run(2 "error: --block-links: expected a comma-separated integer list"
    resolve --checkpoint=${CKPT} --links=4 --channels=2 --seed=3
            --block-links=1,y)
run(2 "error: --block-links: link 4 outside \\[0, 4\\)"
    resolve --checkpoint=${CKPT} --links=4 --channels=2 --seed=3
            --block-links=4)
# There is no repair step left to choose a policy for.
run(2 "error: unknown flag --repair"
    resolve --checkpoint=${CKPT} --links=4 --channels=2 --seed=3
            --block-links=0 --repair=downgrade)
# --update saves the blocked instance's state, so the next resolve under
# the same blockage is a matched warm start.
set(UPD "${WORK_DIR}/smoke_update.ckpt")
file(REMOVE "${UPD}")
run(0 "checkpoint written to"
    solve --links=4 --channels=2 --seed=3 --checkpoint=${UPD})
run(0 "checkpoint: unusable, cold start.*checkpoint written to"
    resolve --checkpoint=${UPD} --links=4 --channels=2 --seed=3
            --block-links=1 --update)
run(0 "checkpoint: same instance, [1-9][0-9]* columns seeded"
    resolve --checkpoint=${UPD} --links=4 --channels=2 --seed=3
            --block-links=1 --update)
file(WRITE "${WORK_DIR}/corrupt.ckpt" "mmwave-cg-checkpoint v1\nchecksum = 0x0123456789abcdef\nnot a checkpoint\n")
run(0 "checkpoint: unusable, cold start"
    solve --links=4 --channels=2 --seed=3
          --checkpoint=${WORK_DIR}/corrupt.ckpt --resume)

# A v1 checkpoint from an older build is refused by the v6-only parser: the
# resolve starts cold and still exits 0.  The checksum is the repo's FNV-1a
# over the payload, precomputed for exactly these bytes, so only the version
# check rejects the file.
file(WRITE "${WORK_DIR}/v1_compat.ckpt"
  "mmwave-cg-checkpoint v1\n"
  "checksum = 0xfc15082131e73c01\n"
  "fingerprint = 0x0000000000000000\n"
  "links = 4\n"
  "channels = 2\n"
  "iterations = 1\n"
  "converged = 1\n"
  "total_slots = 0\n"
  "lower_bound = 0\n"
  "duals_hp = 0 0 0 0\n"
  "duals_lp = 0 0 0 0\n"
  "columns = 0\n"
  "end\n")
run(0 "checkpoint: unusable, cold start \\(.*unsupported checkpoint version v1"
    resolve --checkpoint=${WORK_DIR}/v1_compat.ckpt --links=4 --channels=2
            --seed=3 --block-links=0 --block-atten=0.05)

# --- stream crash recovery (checkpoint file + session cursor) ----------------
# stream --checkpoint rewrites one checkpoint file per period and reports the
# saves and bytes; --resume replays the saved cursor (or starts cold with
# exit 0 when the file is unusable); --metrics-json emits one JSON line per
# GOP plus a session summary line.  Every period solves cold, so stream
# takes no --repair.
set(SLOG "${WORK_DIR}/smoke_stream.ckpt")
file(REMOVE "${SLOG}" "${SLOG}.tmp")
run(0 "checkpoints: +[1-9][0-9]* saves, [1-9][0-9]* bytes"
    stream --links=4 --channels=2 --seed=7 --gops=4 --p-block=0.2
           --checkpoint=${SLOG})
if(NOT EXISTS "${SLOG}")
  message(SEND_ERROR "stream --checkpoint did not write ${SLOG}")
  math(EXPR failures "${failures}+1")
endif()
# The finished session resumes as a no-op continuation: the cursor sits at
# num_gops, so the run reports itself as resumed and replays nothing.
run(0 "resume: cursor at gop 4/4"
    stream --links=4 --channels=2 --seed=7 --gops=4 --p-block=0.2
           --checkpoint=${SLOG} --resume)
# A different session (other seed) must reject the cursor and run fresh.
run(0 "resume: cursor rejected"
    stream --links=4 --channels=2 --seed=8 --gops=4 --p-block=0.2
           --checkpoint=${SLOG} --resume)
# A truncated checkpoint degrades, never errors: keep the first half of the
# file and resume from it.
file(READ "${SLOG}" slog_text)
string(LENGTH "${slog_text}" slog_len)
math(EXPR slog_half "${slog_len} / 2")
string(SUBSTRING "${slog_text}" 0 ${slog_half} slog_torn)
file(WRITE "${SLOG}" "${slog_torn}")
run(0 "resume: no usable checkpoint"
    stream --links=4 --channels=2 --seed=7 --gops=4 --p-block=0.2
           --checkpoint=${SLOG} --resume)
# Resuming against a missing file is a cold start, exit 0.  (The run
# itself then writes that checkpoint, so clear it for re-runs.)
file(REMOVE "${WORK_DIR}/absent_stream.ckpt")
run(0 "resume: no usable checkpoint"
    stream --links=4 --channels=2 --seed=7 --gops=2
           --checkpoint=${WORK_DIR}/absent_stream.ckpt --resume)
run(0 "\"type\":\"gop\".*\"type\":\"session\""
    stream --links=4 --channels=2 --seed=7 --gops=3 --p-block=0.1
           --metrics-json)
run(2 "error: unknown flag --repair"
    stream --links=4 --channels=2 --seed=7 --gops=3 --repair=downgrade)
run(2 "error: --resume requires --checkpoint"
    stream --links=4 --channels=2 --gops=3 --resume)
# A stream period runs without a deadline, with heuristic or hybrid pricing
# and the default master-LP rule: --deadline is not a stream flag, and any
# other --pricing token exits 2 (each used to run as if it were absent).
run(0 "" stream --links=4 --channels=2 --gops=2 --pricing=heuristic)
run(2 "error: unknown flag --deadline"
    stream --links=4 --channels=2 --gops=2 --deadline=0.000001)
run(2 "error: --pricing: stream takes heuristic\\|hybrid, got 'exact'"
    stream --links=4 --channels=2 --gops=2 --pricing=exact)
run(2 "error: --pricing: stream takes heuristic\\|hybrid, got 'steepest'"
    stream --links=4 --channels=2 --gops=2 --pricing=hybrid,steepest)
# QoE flags: drain-risk shaping runs; the per-GOP lines carry the buffer
# fields; bogus policy names and out-of-range thresholds fail fast.
run(0 "policy=drain-risk"
    stream --links=4 --channels=2 --seed=7 --gops=3 --p-block=0.3
           --demand-policy=drain-risk --buffer-target=3)
run(0 "\"buffer_seconds\":.*\"rebuffer_events\":"
    stream --links=4 --channels=2 --seed=7 --gops=3 --p-block=0.1
           --metrics-json)
run(2 "error: --demand-policy: unknown policy"
    stream --links=4 --channels=2 --gops=3 --demand-policy=psychic)
run(2 "error: "
    stream --links=4 --channels=2 --gops=3 --buffer-startup=-1)

# --- serve: fleet daemon exit contract ---------------------------------------
# Flag validation happens before stdin is ever read, so bogus values fail
# fast with exit 2 like every other command.
run(2 "error: .*expected an integer" serve --workers=lots)
run(2 "error: .*out of range"        serve --workers=0)
run(2 "error: .*expected an integer" serve --max-queue=many)
run(2 "error: .*out of range"        serve --max-queue=0)
# An unknown flag fails before stdin is read: --input is not --requests.
run(2 "error: unknown flag --input"  serve --input=reqs.jsonl)

# A malformed request line costs exactly one error record; the lines around
# it still run, and the daemon itself exits 0 — bad input is a per-request
# outcome, never a process failure.  Records appear in admission order.
file(WRITE "${WORK_DIR}/serve_requests.jsonl"
  "{\"id\":\"a\",\"op\":\"solve\",\"links\":4,\"channels\":2,\"seed\":3,\"pricing\":\"heuristic\"}\n"
  "this is not a request\n"
  "{\"id\":\"b\",\"op\":\"solve\",\"links\":4,\"channels\":2,\"seed\":4,\"pricing\":\"heuristic\"}\n")
run(0 "\"id\":\"a\".*\"outcome\":\"ok\".*\"outcome\":\"error\".*\"id\":\"b\".*\"outcome\":\"ok\""
    serve --requests=${WORK_DIR}/serve_requests.jsonl --workers=1)

# SIGTERM drains: in-flight requests finish, the queue manifest lands under
# --state, and the process exits 0 (a handled signal is a graceful stop, not
# a crash).  A restarted serve with the same --state then finishes the fleet
# without repeating a request — each id appears exactly once across both
# segments' shared --out file.
set(FLEET_DIR "${WORK_DIR}/serve_drain")
file(REMOVE_RECURSE "${FLEET_DIR}")
file(MAKE_DIRECTORY "${FLEET_DIR}")
file(WRITE "${FLEET_DIR}/requests.jsonl"
  "{\"id\":\"f1\",\"op\":\"solve\",\"links\":4,\"channels\":2,\"seed\":11,\"pricing\":\"heuristic\"}\n"
  "{\"id\":\"f2\",\"op\":\"solve\",\"links\":4,\"channels\":2,\"seed\":12,\"pricing\":\"heuristic\"}\n"
  "{\"id\":\"f3\",\"op\":\"stream\",\"links\":4,\"channels\":2,\"seed\":13,\"gops\":2,\"p_block\":0.3,\"pricing\":\"heuristic\"}\n"
  "{\"id\":\"f4\",\"op\":\"solve\",\"links\":4,\"channels\":2,\"seed\":14,\"pricing\":\"heuristic\"}\n")
# The FIFO keeps the serve blocked on input (O_RDWR: no torn EOF), so only
# the SIGTERM ends segment 1 — the drain path is exercised deterministically
# no matter how fast the first two requests solve.
file(WRITE "${FLEET_DIR}/drain.sh"
  "set -u\n"
  "cd '${FLEET_DIR}'\n"
  "rm -f req.fifo\n"
  "mkfifo req.fifo\n"
  "'${CLI}' serve --requests=req.fifo --out=records.jsonl \\\n"
  "  --state=fleet.state --workers=1 &\n"
  "pid=$!\n"
  "exec 3<> req.fifo\n"
  "head -n 2 requests.jsonl >&3\n"
  "sleep 1\n"
  "kill -TERM $pid\n"
  "wait $pid\n"
  "exit $?\n")
execute_process(
  COMMAND bash "${FLEET_DIR}/drain.sh"
  RESULT_VARIABLE drain_code
  OUTPUT_VARIABLE drain_out
  ERROR_VARIABLE drain_err
  TIMEOUT 120)
if(NOT drain_code STREQUAL "0")
  message(SEND_ERROR
    "serve SIGTERM drain: expected exit 0, got '${drain_code}'\n"
    "stdout: ${drain_out}\nstderr: ${drain_err}")
  math(EXPR failures "${failures}+1")
endif()
if(NOT EXISTS "${FLEET_DIR}/fleet.state.queue")
  message(SEND_ERROR "serve drain did not write the queue manifest")
  math(EXPR failures "${failures}+1")
else()
  file(READ "${FLEET_DIR}/fleet.state.queue" drain_manifest)
  if(NOT drain_manifest MATCHES "^mmwave-fleet-queue v1\n")
    message(SEND_ERROR
      "queue manifest header is wrong:\n${drain_manifest}")
    math(EXPR failures "${failures}+1")
  endif()
  if(NOT drain_manifest MATCHES "end fnv=0x")
    message(SEND_ERROR
      "queue manifest has no end/fnv seal:\n${drain_manifest}")
    math(EXPR failures "${failures}+1")
  endif()
endif()
# Segment 2: re-feed the FULL request list against the drained state.  Ids
# the manifest marks done are skipped verbatim; the rest run to completion.
run(0 "[1-9][0-9]* skipped"
    serve --requests=${FLEET_DIR}/requests.jsonl
          --out=${FLEET_DIR}/records.jsonl
          --state=${FLEET_DIR}/fleet.state --workers=1)
if(EXISTS "${FLEET_DIR}/records.jsonl")
  file(READ "${FLEET_DIR}/records.jsonl" fleet_records)
  foreach(rid f1 f2 f3 f4)
    string(REGEX MATCHALL "\"id\":\"${rid}\"" hits "${fleet_records}")
    list(LENGTH hits n)
    if(NOT n EQUAL 1)
      message(SEND_ERROR
        "request '${rid}' has ${n} records across drain+resume (want 1):\n"
        "${fleet_records}")
      math(EXPR failures "${failures}+1")
    endif()
  endforeach()
else()
  message(SEND_ERROR "serve drain+resume wrote no records file")
  math(EXPR failures "${failures}+1")
endif()

# --- exit 3: degraded solve (deadline far too small for exact pricing) ------
run(3 "DEGRADED" solve --links=25 --channels=5 --pricing=exact --deadline=0.2)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} CLI smoke case(s) failed")
endif()
message(STATUS "cli_smoke: all exit-status contract cases passed")
