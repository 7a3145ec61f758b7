// perf_fleet — fleet serve-mode throughput / latency / shedding bench.
//
// Feeds one deterministic solve/resolve request list through fleet::Server
// at several worker counts and reports, per count:
//
//   * requests/sec and p50/p99 request latency (admission-to-finish wall
//     clock) on an ample queue (nothing sheds), and
//   * the shed rate plus the admitted requests' p99 latency on a
//     deliberately tiny queue (the overload leg) — overload must cost
//     explicit kOverloaded records and bounded latency for what was
//     admitted, never silent drops or collapse.
//
// The bench double-checks determinism while it is at it: every request
// solves cold, so every worker count must report bit for bit the
// per-request optimum of the workers=1 run.  A mismatch fails the bench
// (exit 1): a throughput number for a server that changes answers under
// concurrency would be meaningless.
//
//   perf_fleet [--requests=M] [--workers=1,4,16] [--overload-queue=Q]
//              [--links --channels --levels] [--out=BENCH_fleet.json]
//
// Timing fields are machine-dependent; the JSON is evidence of shape
// (bounded p99, explicit shedding), not a regression-pinned artifact.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/cli.h"
#include "fleet/server.h"

namespace {

using namespace mmwave;

std::vector<std::string> request_lines(int n, int links, int channels,
                                       int levels) {
  std::vector<std::string> lines;
  char buf[320];
  for (int i = 0; i < n; ++i) {
    const unsigned long long rs = 1000003ULL * static_cast<unsigned>(i) + 7;
    if (i % 2 == 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"s%04d\",\"op\":\"solve\",\"links\":%d,"
                    "\"channels\":%d,\"levels\":%d,\"seed\":%llu}",
                    i, links, channels, levels, rs);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"id\":\"r%04d\",\"op\":\"resolve\",\"links\":%d,"
                    "\"channels\":%d,\"levels\":%d,\"seed\":%llu,"
                    "\"block_links\":[0],\"block_atten\":0.1}",
                    i, links, channels, levels, rs);
    }
    lines.emplace_back(buf);
  }
  return lines;
}

/// Nearest-rank percentile of an unsorted sample (q in [0,1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

struct LegResult {
  double wall_seconds = 0.0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::map<std::string, double> slots_by_id;  // executed requests only
};

LegResult run_leg(const std::vector<std::string>& lines, int workers,
                  int max_queue) {
  fleet::ServerOptions opts;
  opts.workers = workers;
  opts.max_queue = max_queue;
  fleet::Server server(opts);

  LegResult leg;
  std::vector<double> latencies;
  const auto sink = [&](const fleet::RequestRecord& rec) {
    if (rec.outcome == fleet::RequestOutcome::kShed) {
      ++leg.shed;
      return;
    }
    ++leg.completed;
    latencies.push_back(rec.wait_seconds + rec.exec_seconds);
    leg.slots_by_id.emplace(rec.id, rec.total_slots);
  };
  const auto start = std::chrono::steady_clock::now();
  (void)server.run(lines, sink);
  leg.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  leg.p50_latency = percentile(latencies, 0.50);
  leg.p99_latency = percentile(latencies, 0.99);
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags;
  flags.parse(argc, argv);
  const int requests =
      static_cast<int>(flags.get_int("requests", 48));
  const int links = static_cast<int>(flags.get_int("links", 6));
  const int channels = static_cast<int>(flags.get_int("channels", 2));
  const int levels = static_cast<int>(flags.get_int("levels", 3));
  const int overload_queue =
      static_cast<int>(flags.get_int("overload-queue", 4));
  const std::vector<std::int64_t> workers =
      flags.get_int_list("workers", {1, 4, 16});
  const std::string out_path = flags.get_string("out", "");
  if (requests < 1 || overload_queue < 1 || workers.empty()) {
    std::fprintf(stderr,
                 "error: need --requests>=1, --overload-queue>=1 and a "
                 "non-empty --workers list\n");
    return 1;
  }

  const std::vector<std::string> lines =
      request_lines(requests, links, channels, levels);

  // The answer sheet every worker count must reproduce.
  const LegResult baseline = run_leg(lines, /*workers=*/1, requests + 8);

  struct Row {
    int workers = 0;
    LegResult ample;
    LegResult overload;
  };
  std::vector<Row> rows;
  int mismatches = 0;
  for (const std::int64_t w64 : workers) {
    const int w = static_cast<int>(w64);
    Row row;
    row.workers = w;
    row.ample = run_leg(lines, w, requests + 8);
    row.overload = run_leg(lines, w, overload_queue);

    if (row.ample.shed != 0 || row.ample.completed != requests) {
      std::fprintf(stderr,
                   "MISMATCH workers=%d: ample leg shed %lld / completed "
                   "%lld of %d\n",
                   w, static_cast<long long>(row.ample.shed),
                   static_cast<long long>(row.ample.completed), requests);
      ++mismatches;
    }
    for (const auto& [id, want] : baseline.slots_by_id) {
      const auto it = row.ample.slots_by_id.find(id);
      if (it == row.ample.slots_by_id.end() || it->second != want) {
        std::fprintf(stderr,
                     "MISMATCH workers=%d id=%s: workers=1 %.17g, this run "
                     "%.17g\n",
                     w, id.c_str(), want,
                     it == row.ample.slots_by_id.end() ? NAN : it->second);
        ++mismatches;
      }
    }
    if (row.overload.shed + row.overload.completed !=
        static_cast<std::int64_t>(requests)) {
      std::fprintf(stderr,
                   "MISMATCH workers=%d: overload leg lost records (%lld "
                   "shed + %lld completed != %d)\n",
                   w, static_cast<long long>(row.overload.shed),
                   static_cast<long long>(row.overload.completed), requests);
      ++mismatches;
    }

    std::printf(
        "workers=%2d: %7.1f req/s | p50 %.4fs p99 %.4fs | overload "
        "(queue=%d): %lld/%d shed (%.0f%%), admitted p99 %.4fs\n",
        w, static_cast<double>(requests) / row.ample.wall_seconds,
        row.ample.p50_latency, row.ample.p99_latency, overload_queue,
        static_cast<long long>(row.overload.shed), requests,
        100.0 * static_cast<double>(row.overload.shed) / requests,
        row.overload.p99_latency);
    rows.push_back(std::move(row));
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"bench\":\"perf_fleet\",\"requests\":%d,\"links\":%d,"
                   "\"channels\":%d,\"levels\":%d,\"overload_queue\":%d,"
                   "\"deterministic\":%s,\"rows\":[",
                   requests, links, channels, levels, overload_queue,
                   mismatches == 0 ? "true" : "false");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(
            f,
            "%s{\"workers\":%d,\"requests_per_sec\":%.17g,"
            "\"p50_latency_sec\":%.17g,\"p99_latency_sec\":%.17g,"
            "\"overload_shed\":%lld,\"overload_shed_rate\":%.17g,"
            "\"overload_admitted_p99_sec\":%.17g}",
            i == 0 ? "" : ",", r.workers,
            static_cast<double>(requests) / r.ample.wall_seconds,
            r.ample.p50_latency, r.ample.p99_latency,
            static_cast<long long>(r.overload.shed),
            static_cast<double>(r.overload.shed) / requests,
            r.overload.p99_latency);
      }
      std::fprintf(f, "]}\n");
      std::fclose(f);
      std::printf("report written to %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    }
  }

  if (mismatches == 0) return 0;
  std::printf("perf_fleet FAILED: %d mismatch(es)\n", mismatches);
  return 1;
}
