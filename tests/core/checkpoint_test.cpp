// Checkpoint round-trip, corruption-matrix and fault-injection tests: the
// robustness contracts of core/checkpoint.h and core/checkpoint_log.h.  A
// checkpoint must survive a save/load cycle bit-for-bit, and every
// corruption — truncation at any point, a flipped byte, any version but
// the current one, a foreign fingerprint — must come back as a structured
// error that degrades to a cold start, never a crash or a silently wrong
// warm start.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <string>

#include "common/fault_injection.h"
#include "core/checkpoint_log.h"
#include "core/column_generation.h"
#include "core/resolve.h"

namespace mmwave::core {
namespace {

net::Network make_net(std::uint64_t seed, int links, int channels,
                      int levels) {
  common::Rng rng(seed);
  net::NetworkParams p;
  p.num_links = links;
  p.num_channels = channels;
  p.sinr_thresholds.resize(levels);
  for (int q = 0; q < levels; ++q) p.sinr_thresholds[q] = 0.1 * (q + 1);
  return net::Network::table_i(p, rng);
}

std::vector<video::LinkDemand> random_demands(const net::Network& net,
                                              std::uint64_t seed) {
  common::Rng rng(seed * 131 + 7);
  std::vector<video::LinkDemand> d(net.num_links());
  for (auto& x : d) {
    x.hp_bits = rng.uniform(500.0, 2000.0);
    x.lp_bits = rng.uniform(500.0, 2000.0);
  }
  return d;
}

/// A solved small instance and its checkpoint, shared by most tests.
struct Solved {
  net::Network net;
  std::vector<video::LinkDemand> demands;
  CgResult result;
  CgCheckpoint ckpt;
};

Solved solve_and_checkpoint(std::uint64_t seed = 1) {
  Solved s{make_net(seed, 5, 2, 3), {}, {}, {}};
  s.demands = random_demands(s.net, seed);
  CgOptions opts;
  opts.pricing = PricingMode::ExactAlways;
  s.result = solve_column_generation(s.net, s.demands, opts);
  s.ckpt = make_checkpoint(s.net, s.demands, s.result);
  return s;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(CgCheckpoint, CapturesSolverState) {
  const Solved s = solve_and_checkpoint();
  ASSERT_TRUE(s.result.converged);
  EXPECT_EQ(s.ckpt.links, s.net.num_links());
  EXPECT_EQ(s.ckpt.channels, s.net.num_channels());
  EXPECT_EQ(s.ckpt.iterations, s.result.iterations);
  EXPECT_TRUE(s.ckpt.converged);
  EXPECT_DOUBLE_EQ(s.ckpt.total_slots, s.result.total_slots);
  EXPECT_FALSE(s.ckpt.pool.empty());
  EXPECT_EQ(s.ckpt.pool.size(), s.ckpt.pool_tau.size());
  EXPECT_EQ(static_cast<int>(s.ckpt.duals_hp.size()), s.net.num_links());
  EXPECT_EQ(static_cast<int>(s.ckpt.duals_lp.size()), s.net.num_links());
  // The emitted plan's durations live inside pool_tau: they must sum to the
  // objective.
  double tau_sum = 0.0;
  for (double t : s.ckpt.pool_tau) tau_sum += t;
  EXPECT_NEAR(tau_sum, s.result.total_slots, 1e-6 * s.result.total_slots);
}

TEST(CgCheckpoint, SerializeParseSerializeIsByteIdentical) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);
  const auto parsed = parse_checkpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(serialize_checkpoint(parsed.value()), text);
}

TEST(CgCheckpoint, ParseRecoversEveryField) {
  const Solved s = solve_and_checkpoint();
  const auto parsed = parse_checkpoint(serialize_checkpoint(s.ckpt));
  ASSERT_TRUE(parsed.ok());
  const CgCheckpoint& c = parsed.value();
  EXPECT_EQ(c.fingerprint, s.ckpt.fingerprint);
  EXPECT_EQ(c.links, s.ckpt.links);
  EXPECT_EQ(c.channels, s.ckpt.channels);
  EXPECT_EQ(c.iterations, s.ckpt.iterations);
  EXPECT_EQ(c.converged, s.ckpt.converged);
  EXPECT_EQ(c.total_slots, s.ckpt.total_slots);  // %.17g: bit-exact
  EXPECT_EQ(c.duals_hp, s.ckpt.duals_hp);
  EXPECT_EQ(c.duals_lp, s.ckpt.duals_lp);
  EXPECT_EQ(c.pool_tau, s.ckpt.pool_tau);
  ASSERT_EQ(c.pool.size(), s.ckpt.pool.size());
  for (std::size_t i = 0; i < c.pool.size(); ++i)
    EXPECT_EQ(c.pool[i].key(), s.ckpt.pool[i].key());
}

TEST(CgCheckpoint, NanLowerBoundRoundTrips) {
  Solved s = solve_and_checkpoint();
  s.ckpt.lower_bound = std::nan("");
  const auto parsed = parse_checkpoint(serialize_checkpoint(s.ckpt));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(parsed.value().lower_bound));
}

TEST(CgCheckpoint, SaveLoadRoundTrip) {
  const Solved s = solve_and_checkpoint();
  const std::string path = temp_path("ckpt_roundtrip.txt");
  ASSERT_TRUE(save_checkpoint(s.ckpt, path).ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(serialize_checkpoint(loaded.value()),
            serialize_checkpoint(s.ckpt));
  std::remove(path.c_str());
}

TEST(CgCheckpoint, FingerprintSeparatesInstances) {
  const auto net1 = make_net(1, 5, 2, 3);
  const auto net2 = make_net(2, 5, 2, 3);  // same dims, different gains
  const auto d1 = random_demands(net1, 1);
  const auto d2 = random_demands(net1, 2);
  EXPECT_EQ(instance_fingerprint(net1, d1), instance_fingerprint(net1, d1));
  EXPECT_NE(instance_fingerprint(net1, d1), instance_fingerprint(net2, d1));
  EXPECT_NE(instance_fingerprint(net1, d1), instance_fingerprint(net1, d2));
}

// ---- Corruption matrix ---------------------------------------------------

TEST(CgCheckpoint, EveryTruncationIsAStructuredError) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);
  // Cut at every prefix length on a stride (plus the exact line boundaries
  // implicitly covered): none may parse, none may crash.
  for (std::size_t cut = 0; cut < text.size();
       cut += std::max<std::size_t>(1, text.size() / 257)) {
    const auto parsed = parse_checkpoint(text.substr(0, cut));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_FALSE(parsed.status().message().empty());
  }
}

TEST(CgCheckpoint, EveryByteFlipIsCaught) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);
  // Flip one bit at a stride of positions across the whole file.  Flips in
  // the payload break the checksum; flips in the two header lines break
  // magic/version/checksum parsing.  Either way: structured error.
  for (std::size_t pos = 0; pos < text.size();
       pos += std::max<std::size_t>(1, text.size() / 131)) {
    std::string bad = text;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x08);
    const auto parsed = parse_checkpoint(bad);
    if (parsed.ok()) {
      // The only tolerated survivor: a flip that leaves the bytes equal
      // (impossible with XOR) — so this must never happen.
      ADD_FAILURE() << "byte flip at " << pos << " went undetected";
    } else {
      EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
    }
  }
}

TEST(CgCheckpoint, VersionSkewIsDiagnosed) {
  const Solved s = solve_and_checkpoint();
  const std::string text = serialize_checkpoint(s.ckpt);
  const std::string tag = "checkpoint v" + std::to_string(kCheckpointVersion);
  ASSERT_EQ(text.find(tag), std::string("mmwave-cg-").size());
  // Every older version (v1..v5 were written by earlier builds) and the
  // next one are refused; the header is outside the checksum, so only the
  // version check stands between these bytes and a load.
  for (int version = 0; version <= kCheckpointVersion + 1; ++version) {
    if (version == kCheckpointVersion) continue;
    std::string skewed = text;
    skewed.replace(skewed.find(tag), tag.size(),
                   "checkpoint v" + std::to_string(version));
    const auto parsed = parse_checkpoint(skewed);
    ASSERT_FALSE(parsed.ok()) << "v" << version;
    EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
    EXPECT_NE(parsed.status().message().find(
                  "unsupported checkpoint version v" +
                  std::to_string(version)),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(CgCheckpoint, RejectsEmptyAndGarbage) {
  EXPECT_FALSE(parse_checkpoint("").ok());
  EXPECT_FALSE(parse_checkpoint("\n").ok());
  EXPECT_FALSE(parse_checkpoint("not a checkpoint\n").ok());
  EXPECT_FALSE(parse_checkpoint(std::string(4096, 'x')).ok());
  EXPECT_FALSE(parse_checkpoint(std::string("\0\0\0\0", 4)).ok());
}

TEST(CgCheckpoint, RejectsTrailingGarbage) {
  const Solved s = solve_and_checkpoint();
  std::string text = serialize_checkpoint(s.ckpt);
  text += "extra\n";
  EXPECT_FALSE(parse_checkpoint(text).ok());
}

TEST(CgCheckpoint, LoadOfMissingFileIsIoError) {
  const auto loaded = load_checkpoint(temp_path("does_not_exist.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::ErrorCode::kIoError);
}

// ---- Semantic damage under a valid checksum ---------------------------------

/// Reassembles a checkpoint after editing its payload: fresh checksum over
/// the mutated payload, requested version in the magic line.  This is how
/// the tests fabricate semantically-damaged files that are still
/// structurally (checksum-)valid.
std::string reassemble(const std::string& text, int version,
                       const std::function<void(std::string&)>& mutate) {
  const std::size_t first_nl = text.find('\n');
  const std::size_t second_nl = text.find('\n', first_nl + 1);
  std::string payload = text.substr(second_nl + 1);
  mutate(payload);
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "0x%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return "mmwave-cg-checkpoint v" + std::to_string(version) +
         "\nchecksum = " + checksum + "\n" + payload;
}

/// A payload edit for reassemble(): replaces the first `from` with `to`.
std::function<void(std::string&)> edit(std::string from, std::string to) {
  return [from = std::move(from), to = std::move(to)](std::string& payload) {
    const std::size_t at = payload.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    payload.replace(at, from.size(), to);
  };
}

// ---- Fault injection -----------------------------------------------------

TEST(CgCheckpoint, InjectedWriteFailureIsIoError) {
  const Solved s = solve_and_checkpoint();
  const std::string path = temp_path("ckpt_write_fail.txt");
  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointWriteFail, {.times = 1});
  common::FaultScope scope(inj);
  const common::Status st = save_checkpoint(s.ckpt, path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::ErrorCode::kIoError);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointWriteFail), 1);
  // Nothing may be left behind at the target path.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(CgCheckpoint, InjectedPayloadCorruptionDegradesToColdStart) {
  const Solved s = solve_and_checkpoint();
  const std::string path = temp_path("ckpt_corrupt.txt");
  ASSERT_TRUE(save_checkpoint(s.ckpt, path).ok());

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointCorrupt, {.times = 1});
  common::FaultScope scope(inj);
  // The flipped byte must fail the checksum and resolve_from_file must fall
  // back to a cold solve that still reaches the optimum.
  const ResolveResult r =
      resolve_from_file(path, s.net, s.demands, CgOptions{});
  EXPECT_EQ(inj.fired(common::faults::kCheckpointCorrupt), 1);
  EXPECT_FALSE(r.used_checkpoint);
  EXPECT_FALSE(r.checkpoint_status.ok());
  EXPECT_TRUE(r.cg.converged);
  EXPECT_NEAR(r.cg.total_slots, s.result.total_slots,
              1e-7 * s.result.total_slots);
  std::remove(path.c_str());
}

// ---- Stream-session cursor --------------------------------------------------

StreamCursor make_cursor(int links, int next_gop, int num_gops) {
  StreamCursor c;
  c.next_gop = next_gop;
  c.num_gops = num_gops;
  c.session_fingerprint = 0x5EED5EED5EED5EEDULL;
  c.carryover_stall = 1.5;
  c.blocked_fraction_sum = 0.75;
  c.invalidated_periods = 1;
  c.exec_transmissions_dropped = 2;
  c.plan_digest = 0xD16E57D16E57D165ULL;
  c.delivered_bits.assign(links, 1234.5);
  c.blocked.assign(links, 0);
  c.blocked[0] = 1;
  for (int l = 0; l < links; ++l) {
    StreamBufferState b;
    b.occupancy_seconds = 0.25 * l;
    b.stall_seconds = l == 0 ? 0.5 : 0.0;
    b.rebuffer_events = l == 0 ? 1 : 0;
    b.flags = l == 0 ? 2 : 3;  // link 0 mid-rebuffer, the rest playing
    b.hp_gops_delivered = next_gop;
    b.lp_gops_delivered = next_gop - 1;
    c.buffers.push_back(b);
  }
  for (int g = 0; g < next_gop; ++g) {
    StreamGopRecord r;
    r.gop = g;
    r.demand_bits = 1000.0 + g;
    r.schedule_slots = 10.0 + g;
    r.budget_slots = 20.0;
    r.on_time = g % 2 == 0;
    r.stall_slots = r.on_time ? 0.0 : 0.5;
    c.gops.push_back(r);
  }
  return c;
}

/// A solved checkpoint with the session populated.
Solved solve_with_session_state() {
  Solved s = solve_and_checkpoint();
  s.ckpt.has_session = true;
  s.ckpt.session = make_cursor(5, 3, 8);
  return s;
}

TEST(CgCheckpoint, V3SessionAndIndexRoundTrip) {
  const Solved s = solve_with_session_state();
  const std::string text = serialize_checkpoint(s.ckpt);
  const auto parsed = parse_checkpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const CgCheckpoint& c = parsed.value();
  EXPECT_EQ(serialize_checkpoint(c), text);
  // Every payload line is one of the v6 records: solver state, columns and
  // the session cursor, nothing else.
  const std::set<std::string> keys = {
      "fingerprint", "links",   "channels", "iterations", "converged",
      "total_slots", "lower_bound", "duals_hp", "duals_lp", "columns",
      "column",      "tx",      "session",  "cursor",     "delivered",
      "blocked",     "buffers", "gops",     "gop"};
  std::size_t pos = text.find('\n', text.find('\n') + 1) + 1;
  for (std::size_t nl; (nl = text.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    const std::string line = text.substr(pos, nl - pos);
    if (line == "end") continue;
    EXPECT_EQ(keys.count(line.substr(0, line.find(" ="))), 1u) << line;
  }

  ASSERT_TRUE(c.has_session);
  EXPECT_FALSE(c.session_degraded);
  const StreamCursor& cur = c.session;
  EXPECT_EQ(cur.next_gop, 3);
  EXPECT_EQ(cur.num_gops, 8);
  EXPECT_EQ(cur.session_fingerprint, s.ckpt.session.session_fingerprint);
  EXPECT_EQ(cur.carryover_stall, 1.5);  // %.17g: bit-exact
  EXPECT_EQ(cur.delivered_bits, s.ckpt.session.delivered_bits);
  EXPECT_EQ(cur.blocked, s.ckpt.session.blocked);
  EXPECT_EQ(cur.plan_digest, s.ckpt.session.plan_digest);
  ASSERT_EQ(cur.buffers.size(), 5u);
  EXPECT_EQ(cur.buffers[0].flags, 2);
  EXPECT_EQ(cur.buffers[4].occupancy_seconds, 1.0);
  EXPECT_EQ(cur.buffers[3].lp_gops_delivered, 2);
  ASSERT_EQ(cur.gops.size(), 3u);
  EXPECT_EQ(cur.gops[2].gop, 2);
  EXPECT_EQ(cur.gops[1].stall_slots, 0.5);
}

TEST(CgCheckpoint, V3FileSurvivesSaveAndLoad) {
  const Solved s = solve_with_session_state();
  const std::string path = temp_path("ckpt_v3_roundtrip.txt");
  ASSERT_TRUE(save_checkpoint(s.ckpt, path).ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(serialize_checkpoint(loaded.value()),
            serialize_checkpoint(s.ckpt));
  std::remove(path.c_str());
}

TEST(CgCheckpoint, V3SectionsInAV2FileAreRejected) {
  const Solved s = solve_with_session_state();
  // Today's sections (session, buffers) under a v2 stamp and a valid
  // checksum: the version check refuses the file before any section is read.
  const auto parsed = parse_checkpoint(reassemble(
      serialize_checkpoint(s.ckpt), /*version=*/2, [](std::string&) {}));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
  EXPECT_NE(parsed.status().message().find("unsupported checkpoint version v2"),
            std::string::npos)
      << parsed.status().message();
}

TEST(CgCheckpoint, SemanticallyBadCursorDegradesSessionOnly) {
  const Solved s = solve_with_session_state();
  const std::function<void(std::string&)> damages[] = {
      [](std::string& payload) {
        // next_gop beyond num_gops: structurally fine, semantically stale.
        const std::size_t at = payload.find("cursor = 3 8 ");
        ASSERT_NE(at, std::string::npos);
        payload.replace(at, 13, "cursor = 9 8 ");
      },
      [](std::string& payload) {
        // No buffer records: a cursor must carry one per link.
        const std::size_t at = payload.find("buffers = 5 ");
        ASSERT_NE(at, std::string::npos);
        payload.replace(at, payload.find('\n', at) - at, "buffers = 0");
      },
      // Period records out of order.
      edit("\ngop = 1 ", "\ngop = 2 "),
  };
  for (const auto& damage : damages) {
    const auto parsed = parse_checkpoint(reassemble(
        serialize_checkpoint(s.ckpt), kCheckpointVersion, damage));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const CgCheckpoint& c = parsed.value();
    EXPECT_TRUE(c.session_degraded);
    EXPECT_FALSE(c.has_session);
    // Solver state is untouched: the column pool and the duals load.
    EXPECT_EQ(c.pool.size(), s.ckpt.pool.size());
    EXPECT_EQ(c.duals_hp, s.ckpt.duals_hp);
  }
}

TEST(CgCheckpoint, StructuralSolverStateDamageIsAHardError) {
  const Solved s = solve_with_session_state();
  const std::string text = serialize_checkpoint(s.ckpt);
  // Each edit keeps the checksum valid (reassemble recomputes it), so only
  // the field-level parse stands between these bytes and a load.
  const std::function<void(std::string&)> damages[] = {
      edit("fingerprint = 0x", "fingerprint = 0y"),
      edit("total_slots = ", "total_slots = -"),
      edit("duals_hp = ", "duals_hp = 0 "),  // one value too many
      [](std::string& payload) {  // a negative dual
        const std::size_t at = payload.find("duals_lp = ") + 11;
        payload.replace(at, payload.find(' ', at) - at, "-1");
      },
      edit("column = tau ", "column = tua "),
      edit("\ntx = 0 ", "\ntx = 99 "),  // link out of range
      edit("end\n", "fin\n"),
      [](std::string& payload) {  // cut after a record: a key is missing
        payload.erase(payload.find("channels = "));
      },
  };
  for (const auto& damage : damages) {
    const auto parsed =
        parse_checkpoint(reassemble(text, kCheckpointVersion, damage));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
    EXPECT_EQ(parsed.status().message().rfind("checkpoint line ", 0), 0u)
        << parsed.status().message();
  }
}

TEST(CgCheckpoint, StructuralCursorDamageIsStillAHardError) {
  const Solved s = solve_with_session_state();
  const std::function<void(std::string&)> damages[] = {
      edit("\ndelivered = ", "\ndelivred = x"),
      edit("cursor = 3 8 ", "cursor = 3 "),  // a field short
      edit("delivered = 5 1234.5", "delivered = 5 x"),
      edit("blocked = 5 1", "blocked = 5 y"),
      edit("buffers = 5 0 ", "buffers = 5 z "),
      edit("\ngop = 0 ", "\ngop = x "),
  };
  for (const auto& damage : damages) {
    const auto parsed = parse_checkpoint(reassemble(
        serialize_checkpoint(s.ckpt), kCheckpointVersion, damage));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), common::ErrorCode::kInvalidInput);
  }
}

TEST(CgCheckpoint, InjectedSessionCursorCorruptDegradesSessionOnly) {
  const Solved s = solve_with_session_state();
  const std::string text = serialize_checkpoint(s.ckpt);

  common::FaultInjector inj;
  inj.arm(common::faults::kSessionCursorCorrupt, {.times = 1});
  common::FaultScope scope(inj);
  const auto parsed = parse_checkpoint(text);
  EXPECT_EQ(inj.fired(common::faults::kSessionCursorCorrupt), 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  // The injected corrupt cursor costs the session, never the checkpoint:
  // the pool still resolves to the certified optimum.
  EXPECT_TRUE(parsed.value().session_degraded);
  EXPECT_FALSE(parsed.value().has_session);
  ASSERT_EQ(parsed.value().pool.size(), s.ckpt.pool.size());
  const ResolveResult r =
      resolve(s.net, s.demands, parsed.value(), CgOptions{});
  EXPECT_TRUE(r.used_checkpoint);
  EXPECT_TRUE(r.cg.converged);
  EXPECT_NEAR(r.cg.total_slots, s.result.total_slots,
              1e-7 * s.result.total_slots);
}

// ---- CheckpointLog: every save one atomic full rewrite ---------------------
//
// These tests keep the names they had when the log was a base file plus an
// appended delta chain.  In the single-file log a "compaction" is the full
// rewrite every save performs, a "block" or "tail" is the file itself, and
// a "chain" is a `path + ".delta"` file an older build may have left on
// disk, which open() never reads.

/// One streaming period's worth of state change: refreshed header and
/// duals, one column's duration moved, the session cursor one GOP further.
CgCheckpoint advance(const CgCheckpoint& prev) {
  CgCheckpoint next = prev;
  next.iterations += 1;
  for (double& d : next.duals_hp) d += 1e-4;
  if (!next.pool_tau.empty()) next.pool_tau[0] += 1e-6;
  next.session = make_cursor(next.links, prev.session.next_gop + 1, 16);
  next.has_session = true;
  return next;
}

std::string slurp(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  return std::fclose(f) == 0 && written == bytes.size();
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

void remove_log(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".delta").c_str());
}

/// Opens `path` the way a recovering process does.
CheckpointLogLoad reopen(const std::string& path) {
  return CheckpointLog(path).open();
}

/// Puts `bytes` where the checkpoint file belongs and checks that open()
/// starts cold with base_damaged set and that the next save replaces it.
void expect_cold_open_then_healed(const std::string& path,
                                  const std::string& bytes) {
  remove_log(path);
  ASSERT_TRUE(spit(path, bytes));
  CheckpointLog log(path);
  const CheckpointLogLoad loaded = log.open();
  EXPECT_FALSE(loaded.loaded);
  EXPECT_TRUE(loaded.base_damaged);
  EXPECT_FALSE(loaded.state.has_session);
  EXPECT_TRUE(loaded.state.pool.empty());
  const CgCheckpoint fresh = solve_and_checkpoint(3).ckpt;
  ASSERT_TRUE(log.save(fresh).ok());
  const CheckpointLogLoad healed = reopen(path);
  ASSERT_TRUE(healed.loaded);
  EXPECT_FALSE(healed.base_damaged);
  EXPECT_EQ(serialize_checkpoint(healed.state), serialize_checkpoint(fresh));
  remove_log(path);
}

TEST(CheckpointLog, FreshOpenIsColdAndFirstSaveCompacts) {
  const std::string path = temp_path("log_fresh.txt");
  remove_log(path);
  CheckpointLog log(path);
  const CheckpointLogLoad opened = log.open();
  EXPECT_FALSE(opened.loaded);
  EXPECT_FALSE(opened.base_damaged);

  const CgCheckpoint ckpt = solve_with_session_state().ckpt;
  ASSERT_TRUE(log.save(ckpt).ok());
  // The file IS an ordinary checkpoint of the saved state.
  const std::string text = slurp(path);
  EXPECT_EQ(text, serialize_checkpoint(ckpt));
  EXPECT_EQ(log.stats().saves, 1);
  EXPECT_EQ(log.stats().delta_bytes, 0);
  EXPECT_EQ(log.stats().full_bytes, static_cast<std::int64_t>(text.size()));
  remove_log(path);
}

TEST(CheckpointLog, CompactionIsByteIdenticalAndClearsTheChain) {
  const std::string path = temp_path("log_compact.txt");
  remove_log(path);
  CheckpointLog log(path);
  CgCheckpoint ckpt = solve_and_checkpoint().ckpt;
  std::int64_t bytes = 0;
  for (int step = 0; step < 3; ++step) {
    ckpt = advance(ckpt);
    ASSERT_TRUE(log.save(ckpt).ok());
    // Each save rewrites the whole file as a plain checkpoint of the latest
    // state and leaves no side file: no chain, and the temp file renamed
    // away.
    const std::string text = slurp(path);
    EXPECT_EQ(text, serialize_checkpoint(ckpt));
    EXPECT_FALSE(file_exists(path + ".delta"));
    EXPECT_FALSE(file_exists(path + ".tmp"));
    bytes += static_cast<std::int64_t>(text.size());
  }
  EXPECT_EQ(log.stats().saves, 3);
  EXPECT_EQ(log.stats().full_bytes, bytes);
  EXPECT_EQ(log.stats().delta_bytes, 0);
  remove_log(path);
}

TEST(CheckpointLog, DeltaReplayEqualsFullRewriteAfterEverySave) {
  const std::string path = temp_path("log_replay.txt");
  remove_log(path);
  CheckpointLog log(path);
  CgCheckpoint ckpt = solve_and_checkpoint().ckpt;
  for (int step = 0; step < 5; ++step) {
    ckpt = advance(ckpt);
    ASSERT_TRUE(log.save(ckpt).ok());
    // What a recovering process reads serializes byte-identically to the
    // state just saved, with nothing replayed on top.
    const CheckpointLogLoad loaded = reopen(path);
    ASSERT_TRUE(loaded.loaded);
    EXPECT_FALSE(loaded.base_damaged);
    EXPECT_EQ(loaded.deltas_applied, 0);
    EXPECT_EQ(serialize_checkpoint(loaded.state), serialize_checkpoint(ckpt));
  }
  remove_log(path);
}

TEST(CheckpointLog, OpenResumesTheChainWhereItLeftOff) {
  const std::string path = temp_path("log_reopen.txt");
  remove_log(path);
  CgCheckpoint ckpt = advance(solve_and_checkpoint().ckpt);
  {
    CheckpointLog log(path);
    ASSERT_TRUE(log.save(ckpt).ok());
  }
  // A new process binds to the same file, resumes from the last save and
  // keeps saving.
  CheckpointLog log(path);
  const CheckpointLogLoad opened = log.open();
  ASSERT_TRUE(opened.loaded);
  EXPECT_FALSE(opened.base_damaged);
  ASSERT_TRUE(opened.state.has_session);
  EXPECT_EQ(serialize_checkpoint(opened.state), serialize_checkpoint(ckpt));
  ckpt = advance(opened.state);
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().saves, 1);
  EXPECT_EQ(serialize_checkpoint(reopen(path).state),
            serialize_checkpoint(ckpt));
  remove_log(path);
}

TEST(CheckpointLog, BitFlippedBlockIsCaughtByItsChecksum) {
  std::string bytes = serialize_checkpoint(solve_with_session_state().ckpt);
  bytes[bytes.size() / 2] ^= 0x01;  // one bit, mid-payload
  expect_cold_open_then_healed(temp_path("log_bitrot.txt"), bytes);
}

TEST(CheckpointLog, TornTailIsDroppedAndHealedOnDisk) {
  // A file cut mid-payload, as a copy made outside save() can leave it.
  const std::string good =
      serialize_checkpoint(solve_with_session_state().ckpt);
  expect_cold_open_then_healed(temp_path("log_torn.txt"),
                               good.substr(0, good.size() / 2));
}

TEST(CheckpointLog, StaleChainCannotBindToANewerBase) {
  const std::string path = temp_path("log_stale.txt");
  remove_log(path);
  CheckpointLog log(path);
  const CgCheckpoint ckpt = advance(solve_and_checkpoint().ckpt);
  ASSERT_TRUE(log.save(ckpt).ok());
  // A chain file next to the checkpoint is never applied, even when it
  // holds a well-formed later state.
  ASSERT_TRUE(spit(path + ".delta", serialize_checkpoint(advance(ckpt))));
  const CheckpointLogLoad loaded = reopen(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(loaded.deltas_applied, 0);
  EXPECT_EQ(serialize_checkpoint(loaded.state), serialize_checkpoint(ckpt));

  // A base the older build wrote is refused by its version: a valid
  // payload under a v5 header with a fresh checksum.
  expect_cold_open_then_healed(
      path, reassemble(serialize_checkpoint(ckpt), kCheckpointVersion - 1,
                       [](std::string&) {}));
}

TEST(CheckpointLog, ChainWithoutABaseIsDiscarded) {
  const std::string path = temp_path("log_orphan_chain.txt");
  remove_log(path);
  // With no checkpoint file a leftover chain is never read: a plain cold
  // start, not damage.
  ASSERT_TRUE(spit(path + ".delta",
                   serialize_checkpoint(solve_and_checkpoint().ckpt)));
  const CheckpointLogLoad loaded = reopen(path);
  EXPECT_FALSE(loaded.loaded);
  EXPECT_FALSE(loaded.base_damaged);
  EXPECT_TRUE(loaded.state.pool.empty());
  remove_log(path);
}

TEST(CheckpointLog, LeftoverTmpFileIsHarmless) {
  const std::string path = temp_path("log_orphan.txt");
  remove_log(path);
  // A temp file without a checkpoint (a first save torn before its rename)
  // is a plain cold start, not damage.
  ASSERT_TRUE(spit(path + ".tmp", "mmwave-cg-checkpoint v6\nchecksum = "));
  CheckpointLog log(path);
  const CheckpointLogLoad opened = log.open();
  EXPECT_FALSE(opened.loaded);
  EXPECT_FALSE(opened.base_damaged);

  // Next to a good checkpoint it is never read, and the next save simply
  // overwrites it.
  const CgCheckpoint ckpt = solve_and_checkpoint().ckpt;
  ASSERT_TRUE(log.save(ckpt).ok());
  ASSERT_TRUE(spit(path + ".tmp", "garbage"));
  const CheckpointLogLoad loaded = reopen(path);
  ASSERT_TRUE(loaded.loaded);
  EXPECT_EQ(serialize_checkpoint(loaded.state), serialize_checkpoint(ckpt));
  ASSERT_TRUE(log.save(advance(ckpt)).ok());
  EXPECT_FALSE(file_exists(path + ".tmp"));
  remove_log(path);
}

TEST(CheckpointLog, InjectedCompactCrashLeavesThePreviousStateLoadable) {
  const std::string path = temp_path("log_fault_compact.txt");
  remove_log(path);
  CheckpointLog log(path);
  const CgCheckpoint ckpt = solve_and_checkpoint().ckpt;
  ASSERT_TRUE(log.save(ckpt).ok());

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointTornWrite, {.times = 1});
  common::FaultScope scope(inj);

  const CgCheckpoint next = advance(ckpt);
  ASSERT_FALSE(log.save(next).ok());
  EXPECT_EQ(inj.fired(common::faults::kCheckpointTornWrite), 1);
  // Half of the temp file landed and the rename never ran: the file on
  // disk is still the previous save, not garbage.
  const std::string next_text = serialize_checkpoint(next);
  EXPECT_EQ(slurp(path + ".tmp"), next_text.substr(0, next_text.size() / 2));
  const CheckpointLogLoad survived = reopen(path);
  ASSERT_TRUE(survived.loaded);
  EXPECT_FALSE(survived.base_damaged);
  EXPECT_EQ(serialize_checkpoint(survived.state), serialize_checkpoint(ckpt));
  remove_log(path);
}

TEST(CheckpointLog, InjectedTornWriteFailsTheSaveThenSelfHeals) {
  const std::string path = temp_path("log_fault_torn.txt");
  remove_log(path);
  CheckpointLog log(path);
  CgCheckpoint ckpt = solve_and_checkpoint().ckpt;
  ASSERT_TRUE(log.save(ckpt).ok());

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointTornWrite, {.times = 1});
  common::FaultScope scope(inj);

  ckpt = advance(ckpt);
  const common::Status torn = log.save(ckpt);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), common::ErrorCode::kIoError);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointTornWrite), 1);
  EXPECT_EQ(log.stats().saves, 1);

  // The next save persists the lost update after all.
  ASSERT_TRUE(log.save(ckpt).ok());
  EXPECT_EQ(log.stats().saves, 2);
  EXPECT_EQ(serialize_checkpoint(reopen(path).state),
            serialize_checkpoint(ckpt));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  remove_log(path);
}

TEST(CheckpointLog, InjectedWriteFailLeavesThePreviousSaveLoadable) {
  const std::string path = temp_path("log_fault_write.txt");
  remove_log(path);
  CheckpointLog log(path);
  const CgCheckpoint ckpt = advance(solve_and_checkpoint().ckpt);
  ASSERT_TRUE(log.save(ckpt).ok());

  common::FaultInjector inj;
  inj.arm(common::faults::kCheckpointWriteFail, {.times = 1});
  common::FaultScope scope(inj);

  const CgCheckpoint next = advance(ckpt);
  const common::Status failed = log.save(next);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), common::ErrorCode::kIoError);
  EXPECT_EQ(inj.fired(common::faults::kCheckpointWriteFail), 1);
  EXPECT_EQ(serialize_checkpoint(reopen(path).state),
            serialize_checkpoint(ckpt));

  // Retry succeeds once the fault window passes.
  ASSERT_TRUE(log.save(next).ok());
  EXPECT_EQ(serialize_checkpoint(reopen(path).state),
            serialize_checkpoint(next));
  remove_log(path);
}

}  // namespace
}  // namespace mmwave::core
