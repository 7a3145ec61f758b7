// fleet::Server contract tests: every clause of the serve-mode robustness
// contract (fleet/server.h) under its scripted fault site —
// faults::kFleetQueueOverflow sheds explicitly, faults::kFleetRequestPoison
// degrades one request only, faults::kFleetWorkerStall meets the watchdog,
// faults::kFleetDrainCrash is absorbed by the manifest retry — plus the
// strict request parser, the drain/resume round trip, and bit-identical
// records for any worker count.
#include "fleet/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/checkpoint_log.h"
#include "fleet/request.h"

namespace mmwave::fleet {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string solve_line(const std::string& id, unsigned long long seed) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"id\":\"%s\",\"op\":\"solve\",\"links\":4,"
                "\"channels\":2,\"levels\":3,\"seed\":%llu}",
                id.c_str(), seed);
  return buf;
}

std::string stream_line(const std::string& id, unsigned long long seed) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"id\":\"%s\",\"op\":\"stream\",\"links\":4,"
                "\"channels\":2,\"levels\":3,\"seed\":%llu,\"gops\":2,"
                "\"p_block\":0.3,\"pricing\":\"heuristic\"}",
                id.c_str(), seed);
  return buf;
}

struct RunOutput {
  std::vector<RequestRecord> records;
  ServerReport report;
};

/// Runs `server` over `lines`; stop_after >= 0 requests a drain once that
/// many records have been emitted.
RunOutput run_lines(Server& server, const std::vector<std::string>& lines,
                    int stop_after = -1) {
  RunOutput out;
  std::atomic<int> emitted{0};
  const auto sink = [&](const RequestRecord& rec) {
    emitted.fetch_add(1, std::memory_order_relaxed);
    out.records.push_back(rec);
  };
  std::function<bool()> stop;
  if (stop_after >= 0) {
    stop = [&emitted, stop_after] {
      return emitted.load(std::memory_order_relaxed) >= stop_after;
    };
  }
  out.report = server.run(lines, sink, stop);
  return out;
}

void remove_state(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".queue").c_str());
}

TEST(FleetRequest, ParserIsStrictAboutKeysValuesAndRanges) {
  const auto good = parse_request_line(solve_line("a", 7));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().id, "a");
  EXPECT_EQ(good.value().links, 4);
  EXPECT_EQ(good.value().op, FleetOp::kSolve);

  const char* bad[] = {
      "{\"op\":\"solve\"}",                            // missing id
      "{\"id\":\"a\",\"op\":\"warp\"}",                // unknown op
      "{\"id\":\"a\",\"bogus\":1}",                    // unknown key
      "{\"id\":\"a\",\"id\":\"b\"}",                   // duplicate key
      "{\"id\":\"a\",\"links\":0}",                    // out of range
      "{\"id\":\"a\"} trailing",                       // trailing bytes
      "{\"id\":\"a\",\"links\":4,\"block_links\":[4]}",  // link out of range
      "not json at all",
      // Ids outside [A-Za-z0-9._-]{1,64}: a newline splits the queue
      // manifest line, a slash escapes the state-path prefix.
      "{\"id\":\"a\\nb\"}",
      "{\"id\":\"../x\"}",
      "{\"id\":\"a\\/b\"}",
      "{\"id\":\"a b\"}",
      "{\"id\":\"a\\tb\"}",
      "{\"id\":\"\xc3\xa9\"}",
      "{\"id\":\"\"}",
  };
  for (const char* line : bad) {
    const auto parsed = parse_request_line(line);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput)
        << line;
  }
  const std::string longest(64, 'x');
  EXPECT_TRUE(parse_request_line("{\"id\":\"" + longest + "\"}").ok());
  EXPECT_EQ(parse_request_line("{\"id\":\"" + longest + "y\"}")
                .status()
                .code(),
            common::ErrorCode::kInvalidInput);
  const auto grammar = parse_request_line("{\"id\":\"Run-1.a_B9\"}");
  ASSERT_TRUE(grammar.ok());
  EXPECT_EQ(grammar.value().id, "Run-1.a_B9");
}

TEST(FleetRequest, RecordJsonUsesStableKeyOrder) {
  RequestRecord rec;
  rec.id = "x";
  rec.index = 3;
  rec.op = FleetOp::kSolve;
  rec.outcome = RequestOutcome::kOk;
  rec.total_slots = 1.5;
  const std::string line = rec.to_json_line();
  const char* keys[] = {"\"id\"",         "\"index\"",      "\"op\"",
                        "\"outcome\"",    "\"code\"",       "\"message\"",
                        "\"total_slots\"", "\"iterations\"", "\"converged\"",
                        "\"wait_seconds\"", "\"exec_seconds\""};
  std::size_t pos = 0;
  for (const char* key : keys) {
    const std::size_t at = line.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key << " missing in " << line;
    pos = at;
  }
}

TEST(FleetServer, MalformedLineCostsExactlyOneErrorRecord) {
  Server server(ServerOptions{});
  const RunOutput out = run_lines(
      server, {solve_line("a", 1), "{\"op\":\"solve\"}", solve_line("b", 2)});
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[0].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.records[1].outcome, RequestOutcome::kError);
  EXPECT_EQ(out.records[1].code, common::ErrorCode::kInvalidInput);
  EXPECT_EQ(out.records[2].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.report.errors, 1);
  EXPECT_EQ(out.report.completed, 2);
  // Records arrive in admission order even though execution is pooled.
  for (std::size_t i = 0; i < out.records.size(); ++i)
    EXPECT_EQ(out.records[i].index, static_cast<int>(i));
}

TEST(FleetServer, QueueOverflowFaultShedsWithAnExplicitRecord) {
  common::FaultInjector injector(11);
  injector.arm(common::faults::kFleetQueueOverflow, {.times = 1});
  common::FaultScope scope(injector);

  Server server(ServerOptions{});
  const RunOutput out = run_lines(
      server, {solve_line("a", 1), solve_line("b", 2), solve_line("c", 3)});
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[0].outcome, RequestOutcome::kShed);
  EXPECT_EQ(out.records[0].code, common::ErrorCode::kOverloaded);
  EXPECT_EQ(out.records[1].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.records[2].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.report.shed, 1);
  EXPECT_EQ(out.report.admitted, 2);
}

TEST(FleetServer, RealQueueBoundShedsBeyondCapacity) {
  // workers=1 and a stream request holding the worker: with max_queue=1
  // the later arrivals must shed, and every line still gets one record.
  ServerOptions opts;
  opts.workers = 1;
  opts.max_queue = 1;
  Server server(opts);
  const std::string slow =
      "{\"id\":\"slow\",\"op\":\"stream\",\"links\":4,\"channels\":2,"
      "\"levels\":3,\"seed\":1,\"gops\":8,\"p_block\":0.3,"
      "\"pricing\":\"heuristic\"}";
  const RunOutput out = run_lines(
      server, {slow, solve_line("b", 2), solve_line("c", 3),
               solve_line("d", 4)});
  ASSERT_EQ(out.records.size(), 4u);
  EXPECT_GT(out.report.shed, 0);
  EXPECT_EQ(out.report.shed + out.report.admitted, 4);
  for (const RequestRecord& rec : out.records) {
    if (rec.outcome == RequestOutcome::kShed) {
      EXPECT_EQ(rec.code, common::ErrorCode::kOverloaded);
    }
  }
}

TEST(FleetServer, PoisonedRequestDegradesOnlyItself) {
  common::FaultInjector injector(12);
  injector.arm(common::faults::kFleetRequestPoison, {.times = 1});
  common::FaultScope scope(injector);

  ServerOptions opts;
  opts.workers = 1;  // deterministic execution order for the fault
  Server server(opts);
  const RunOutput out = run_lines(
      server, {solve_line("a", 1), solve_line("b", 2), solve_line("c", 3)});
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[0].outcome, RequestOutcome::kError);
  EXPECT_EQ(out.records[0].code, common::ErrorCode::kInvalidInput);
  EXPECT_EQ(out.records[0].message, "poisoned request payload");
  EXPECT_EQ(out.records[1].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.records[2].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.report.errors, 1);
  EXPECT_EQ(out.report.completed, 2);
}

TEST(FleetServer, WatchdogCancelsAWedgedWorker) {
  common::FaultInjector injector(13);
  injector.arm(common::faults::kFleetWorkerStall, {.times = 1});
  common::FaultScope scope(injector);

  ServerOptions opts;
  opts.workers = 1;
  opts.watchdog_multiple = 2.0;
  opts.watchdog_poll_sec = 0.001;
  Server server(opts);
  std::vector<std::string> lines;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"id\":\"wedged\",\"op\":\"solve\",\"links\":4,"
                "\"channels\":2,\"levels\":3,\"seed\":1,\"deadline\":0.02}");
  lines.emplace_back(buf);
  lines.push_back(solve_line("healthy", 2));

  const RunOutput out = run_lines(server, lines);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].outcome, RequestOutcome::kCancelled);
  EXPECT_EQ(out.records[0].code, common::ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(out.records[1].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.report.cancelled, 1);
  EXPECT_EQ(out.report.completed, 1);
}

TEST(FleetServer, DuplicateIdsErrorButVerbatimRefeedsSkip) {
  Server server(ServerOptions{});
  const std::string a = solve_line("a", 1);
  const RunOutput out =
      run_lines(server, {a, a, solve_line("a", 9), solve_line("b", 2)});
  ASSERT_EQ(out.records.size(), 3u);  // verbatim duplicate emits nothing
  EXPECT_EQ(out.report.resume_skipped, 1);
  EXPECT_EQ(out.records[1].outcome, RequestOutcome::kError);
  EXPECT_NE(out.records[1].message.find("duplicate request id"),
            std::string::npos);
  EXPECT_EQ(out.records[0].outcome, RequestOutcome::kOk);
  EXPECT_EQ(out.records[2].outcome, RequestOutcome::kOk);
}

TEST(FleetServer, DrainParksQueuedRequestsAndResumeFinishesThem) {
  const std::string state = temp_path("fleet_drain.ckpt");
  remove_state(state);
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i)
    lines.push_back(solve_line("q" + std::to_string(i),
                               static_cast<unsigned long long>(i) + 1));

  // Uninterrupted reference records (no persistence).
  Server reference(ServerOptions{});
  const RunOutput ref = run_lines(reference, lines);
  ASSERT_EQ(ref.records.size(), 6u);

  ServerOptions opts;
  opts.workers = 1;
  opts.state_path = state;
  std::map<std::string, RequestRecord> seen;
  int duplicates = 0;
  {
    Server first(opts);
    const RunOutput out = run_lines(first, lines, /*stop_after=*/1);
    EXPECT_TRUE(out.report.drained);
    EXPECT_GT(out.report.parked, 0);
    EXPECT_TRUE(out.report.state_status.ok());
    for (const RequestRecord& rec : out.records)
      if (!seen.emplace(rec.id, rec).second) ++duplicates;
  }
  {
    // A restarted run re-fed the FULL list: finished ids skip, parked
    // requests execute, nothing is lost or served twice.
    Server second(opts);
    const RunOutput out = run_lines(second, lines);
    EXPECT_GT(out.report.resume_skipped, 0);
    for (const RequestRecord& rec : out.records)
      if (!seen.emplace(rec.id, rec).second) ++duplicates;
  }
  EXPECT_EQ(duplicates, 0);
  ASSERT_EQ(seen.size(), 6u);
  for (const RequestRecord& want : ref.records) {
    const auto it = seen.find(want.id);
    ASSERT_NE(it, seen.end()) << want.id << " lost across the drain";
    EXPECT_EQ(it->second.outcome, want.outcome) << want.id;
    EXPECT_NEAR(it->second.total_slots, want.total_slots,
                1e-7 * (1.0 + want.total_slots))
        << want.id;
  }
  remove_state(state);
}

TEST(FleetServer, DrainCrashFaultIsAbsorbedByTheManifestRetry) {
  common::FaultInjector injector(14);
  injector.arm(common::faults::kFleetDrainCrash, {.times = 1});
  common::FaultScope scope(injector);

  const std::string state = temp_path("fleet_drain_crash.ckpt");
  remove_state(state);
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i)
    lines.push_back(solve_line("c" + std::to_string(i),
                               static_cast<unsigned long long>(i) + 1));

  ServerOptions opts;
  opts.workers = 1;
  opts.state_path = state;
  Server first(opts);
  const RunOutput out = run_lines(first, lines, /*stop_after=*/1);
  // The first manifest write died with a transient kIoError; the retry
  // landed it, so the drain still reports healthy durable state...
  EXPECT_TRUE(out.report.state_status.ok());

  // ...and a resume genuinely finds the queue.
  Server second(opts);
  const RunOutput resumed = run_lines(second, lines);
  EXPECT_GT(resumed.report.resume_skipped, 0);
  std::map<std::string, int> count;
  for (const RequestRecord& rec : out.records) ++count[rec.id];
  for (const RequestRecord& rec : resumed.records) ++count[rec.id];
  EXPECT_EQ(count.size(), 4u);
  for (const auto& [id, n] : count) EXPECT_EQ(n, 1) << id;
  remove_state(state);
}

TEST(FleetServer, SaveWithRetryRetriesOnlyTransientIoErrors) {
  const std::string path = temp_path("fleet_retry.ckpt");
  remove_state(path);
  core::CgCheckpoint ckpt;  // empty state is a valid (cold) checkpoint
  {
    common::FaultInjector injector(15);
    injector.arm(common::faults::kCheckpointWriteFail, {.times = 2});
    common::FaultScope scope(injector);
    core::CheckpointLog log(path);
    (void)log.open();
    // Two injected failures, three retries: the save must land.
    EXPECT_TRUE(save_with_retry(log, ckpt, 3, 0.0001).ok());
  }
  {
    common::FaultInjector injector(16);
    injector.arm(common::faults::kCheckpointWriteFail, {.times = 100});
    common::FaultScope scope(injector);
    core::CheckpointLog log(path);
    (void)log.open();
    const common::Status st = save_with_retry(log, ckpt, 2, 0.0001);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), common::ErrorCode::kIoError);
  }
  remove_state(path);
}

TEST(FleetServer, RecordsAreDeterministicAcrossWorkerCounts) {
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i)
    lines.push_back(solve_line("d" + std::to_string(i),
                               static_cast<unsigned long long>(i) + 1));
  lines.push_back(stream_line("t0", 21));
  lines.push_back(stream_line("t1", 22));

  std::map<std::string, RequestRecord> by_workers[2];
  const int counts[2] = {1, 4};
  for (int w = 0; w < 2; ++w) {
    ServerOptions opts;
    opts.workers = counts[w];
    Server server(opts);
    const RunOutput out = run_lines(server, lines);
    for (const RequestRecord& rec : out.records)
      by_workers[w].emplace(rec.id, rec);
  }
  ASSERT_EQ(by_workers[0].size(), lines.size());
  ASSERT_EQ(by_workers[1].size(), lines.size());
  for (const auto& [id, want] : by_workers[0]) {
    const RequestRecord& got = by_workers[1].at(id);
    // Every request solves cold on its own: nothing another request did,
    // and no thread timing, can move any field of its record.
    EXPECT_EQ(got.outcome, want.outcome) << id;
    EXPECT_EQ(got.converged, want.converged) << id;
    // Stream digests are bit-compared via the message; solve messages are
    // empty on the ok path, so this is exact either way.
    EXPECT_EQ(got.message, want.message) << id;
    EXPECT_EQ(got.iterations, want.iterations) << id;
    EXPECT_EQ(got.total_slots, want.total_slots) << id;
  }
}

}  // namespace
}  // namespace mmwave::fleet
