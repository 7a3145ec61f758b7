#include "core/checkpoint.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/fault_injection.h"
#include "common/log.h"
#include "core/column_generation.h"

namespace mmwave::core {
namespace {

// ---- Line grammar -----------------------------------------------------------
// `key = tokens...` records, %.17g doubles that round-trip IEEE exactly,
// 0x + 16-hex-digit u64s, strict full-token numeric parses.

constexpr const char* kMagic = "mmwave-cg-checkpoint";

// Hard ceilings on parsed counts: a corrupted header must not be able to
// drive a multi-gigabyte allocation before the record lines are even
// reachable (the checksum is verified first, but belt and braces).
constexpr int kMaxLinks = 4096;
constexpr int kMaxChannels = 1024;
constexpr int kMaxColumns = 1'000'000;
constexpr int kMaxRateLevels = 64;
constexpr int kMaxGops = 1'000'000;

[[nodiscard]] common::Status parse_error(int line, const std::string& what) {
  return common::Status::Error(
      common::ErrorCode::kInvalidInput,
      "checkpoint line " + std::to_string(line) + ": " + what);
}

/// %.17g round-trips IEEE doubles exactly, which is what makes the
/// save -> load -> serialize cycle byte-identical.
void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "nan";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Strict full-token double parse; `allow_nan` admits the literal "nan".
bool parse_double_token(std::string_view token, bool allow_nan,
                        double* out) {
  if (token.empty() || token.size() >= 63) return false;
  if (token == "nan") {
    if (!allow_nan) return false;
    *out = std::nan("");
    return true;
  }
  char buf[64];
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (end != buf + token.size() || errno == ERANGE || !std::isfinite(v))
    return false;
  *out = v;
  return true;
}

bool parse_int_token(std::string_view token, long long lo, long long hi,
                     long long* out) {
  if (token.empty() || token.size() >= 31) return false;
  char buf[32];
  std::memcpy(buf, token.data(), token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf, &end, 10);
  if (end != buf + token.size() || errno == ERANGE || v < lo || v > hi)
    return false;
  *out = v;
  return true;
}

bool parse_hex64_token(std::string_view token, std::uint64_t* out) {
  if (token.size() != 18 || token[0] != '0' || token[1] != 'x') return false;
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < token.size(); ++i) {
    const char c = token[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = v;
  return true;
}

void append_hex64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  out += buf;
}

/// Line cursor over the payload; tracks 1-based line numbers for errors.
class LineReader {
 public:
  LineReader(std::string_view text, int first_line)
      : text_(text), line_(first_line - 1) {}

  /// Next line without its '\n'.  False at end of input.
  bool next(std::string_view* out) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      // A checkpoint always ends in a newline; a final unterminated line is
      // a truncation, reported by the caller when the content mismatches.
      *out = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      *out = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    ++line_;
    return true;
  }
  bool at_end() const { return pos_ >= text_.size(); }
  int line() const { return line_ + 1; }  ///< line number of the NEXT line

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
};

/// Splits on single spaces (the serializers never emit doubles/tabs).
std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t sp = line.find(' ', pos);
    if (sp == std::string_view::npos) {
      tokens.push_back(line.substr(pos));
      break;
    }
    tokens.push_back(line.substr(pos, sp - pos));
    pos = sp + 1;
  }
  return tokens;
}

/// Reads one `key = <value tokens...>` line; returns the value tokens.
[[nodiscard]] common::Expected<std::vector<std::string_view>> expect_kv(
    LineReader& reader, std::string_view key) {
  std::string_view line;
  const int line_no = reader.line();
  if (!reader.next(&line)) {
    return parse_error(line_no, "truncated: expected '" + std::string(key) +
                                    " = ...'");
  }
  auto tokens = split_tokens(line);
  if (tokens.size() < 3 || tokens[0] != key || tokens[1] != "=") {
    return parse_error(line_no, "expected '" + std::string(key) +
                                    " = ...', got '" + std::string(line) +
                                    "'");
  }
  tokens.erase(tokens.begin(), tokens.begin() + 2);
  return tokens;
}

[[nodiscard]] common::Expected<long long> expect_int(
    LineReader& reader, std::string_view key, long long lo, long long hi) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, key);
  if (!tokens.ok()) return tokens.status();
  long long v = 0;
  if (tokens.value().size() != 1 ||
      !parse_int_token(tokens.value()[0], lo, hi, &v)) {
    return parse_error(line_no, std::string(key) +
                                    ": expected an integer in [" +
                                    std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]");
  }
  return v;
}

[[nodiscard]] common::Expected<double> expect_double(
    LineReader& reader, std::string_view key, bool allow_nan) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, key);
  if (!tokens.ok()) return tokens.status();
  double v = 0.0;
  if (tokens.value().size() != 1 ||
      !parse_double_token(tokens.value()[0], allow_nan, &v)) {
    return parse_error(line_no,
                       std::string(key) + ": expected a finite number" +
                           (allow_nan ? " or 'nan'" : ""));
  }
  return v;
}

/// Emits one pool column: the `column = tau <t> txs <n>` record followed by
/// its `tx = ...` lines.
void append_column(std::string& out, const sched::Schedule& col,
                   double tau) {
  out += "column = tau ";
  append_double(out, tau);
  out += " txs " + std::to_string(col.size());
  out += '\n';
  for (const sched::Transmission& tx : col.transmissions()) {
    out += "tx = " + std::to_string(tx.link) + ' ' +
           std::to_string(static_cast<int>(tx.layer)) + ' ' +
           std::to_string(tx.rate_level) + ' ' +
           std::to_string(tx.channel) + ' ';
    append_double(out, tx.power_watts);
    out += '\n';
  }
}

/// Strict inverse of append_column: one column record plus its tx lines,
/// bounds-checked against the instance dimensions.
[[nodiscard]] common::Status parse_column(LineReader& reader, int links,
                                          int channels, sched::Schedule* col,
                                          double* tau) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, "column");
  if (!tokens.ok()) return tokens.status();
  const auto& t = tokens.value();
  long long num_txs = 0;
  if (t.size() != 4 || t[0] != "tau" || t[2] != "txs" ||
      !parse_double_token(t[1], /*allow_nan=*/false, tau) || *tau < 0.0 ||
      !parse_int_token(t[3], 0, 2LL * kMaxLinks, &num_txs)) {
    return parse_error(line_no, "column: expected 'column = tau <t> txs <n>'");
  }
  for (long long i = 0; i < num_txs; ++i) {
    const int tx_line = reader.line();
    auto tx_tokens = expect_kv(reader, "tx");
    if (!tx_tokens.ok()) return tx_tokens.status();
    const auto& tt = tx_tokens.value();
    long long link = 0, layer = 0, level = 0, channel = 0;
    double power = 0.0;
    if (tt.size() != 5 ||
        !parse_int_token(tt[0], 0, links - 1, &link) ||
        !parse_int_token(tt[1], 0, 1, &layer) ||
        !parse_int_token(tt[2], 0, kMaxRateLevels - 1, &level) ||
        !parse_int_token(tt[3], 0, channels - 1, &channel) ||
        !parse_double_token(tt[4], /*allow_nan=*/false, &power) ||
        power < 0.0) {
      return parse_error(
          tx_line, "tx: expected '<link> <layer> <level> <channel> <power>' "
                   "with all fields in range");
    }
    col->add({static_cast<int>(link), static_cast<net::Layer>(layer),
              static_cast<int>(level), static_cast<int>(channel), power});
  }
  return common::Status::Ok();
}

/// Parses a fixed-width duals line (`duals_hp = ...` / `duals_lp = ...`):
/// exactly `expected_size` finite non-negative values.
[[nodiscard]] common::Expected<std::vector<double>> parse_dual_vector(
    LineReader& reader, std::string_view key, int expected_size) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, key);
  if (!tokens.ok()) return tokens.status();
  if (static_cast<int>(tokens.value().size()) != expected_size) {
    return parse_error(line_no, std::string(key) + ": expected " +
                                    std::to_string(expected_size) +
                                    " values, got " +
                                    std::to_string(tokens.value().size()));
  }
  std::vector<double> values;
  values.reserve(tokens.value().size());
  for (std::string_view t : tokens.value()) {
    double v = 0.0;
    if (!parse_double_token(t, /*allow_nan=*/false, &v) || v < 0.0) {
      return parse_error(line_no, std::string(key) +
                                      ": dual values must be finite and >= 0");
    }
    values.push_back(v);
  }
  return values;
}

/// Incremental FNV-1a over typed fields (the instance fingerprint).
class FingerprintHasher {
 public:
  void add_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Serializes the session section (grammar in DESIGN §8.1).  The vectors
/// carry explicit counts so the serializer is total over any StreamCursor;
/// the parser's semantic checks enforce count == links on load.
void append_session(std::string& out, const CgCheckpoint& ckpt) {
  out += "session = ";
  out += ckpt.has_session ? '1' : '0';
  out += '\n';
  if (!ckpt.has_session) return;
  const StreamCursor& s = ckpt.session;
  out += "cursor = " + std::to_string(s.next_gop) + ' ' +
         std::to_string(s.num_gops) + ' ';
  append_hex64(out, s.session_fingerprint);
  out += ' ';
  append_double(out, s.carryover_stall);
  out += ' ';
  append_double(out, s.blocked_fraction_sum);
  out += ' ' + std::to_string(s.invalidated_periods) + ' ' +
         std::to_string(s.exec_transmissions_dropped) + ' ';
  append_hex64(out, s.plan_digest);
  out += "\ndelivered = " + std::to_string(s.delivered_bits.size());
  for (double v : s.delivered_bits) {
    out += ' ';
    append_double(out, v);
  }
  out += "\nblocked = " + std::to_string(s.blocked.size());
  for (int b : s.blocked) out += ' ' + std::to_string(b);
  out += "\nbuffers = " + std::to_string(s.buffers.size());
  for (const StreamBufferState& b : s.buffers) {
    out += ' ';
    append_double(out, b.occupancy_seconds);
    out += ' ';
    append_double(out, b.stall_seconds);
    out += ' ' + std::to_string(b.rebuffer_events) + ' ' +
           std::to_string(b.flags) + ' ' +
           std::to_string(b.hp_gops_delivered) + ' ' +
           std::to_string(b.lp_gops_delivered);
  }
  out += "\ngops = " + std::to_string(s.gops.size());
  out += '\n';
  for (const StreamGopRecord& g : s.gops) {
    out += "gop = " + std::to_string(g.gop) + ' ';
    append_double(out, g.demand_bits);
    out += ' ';
    append_double(out, g.schedule_slots);
    out += ' ';
    append_double(out, g.budget_slots);
    out += ' ';
    out += g.on_time ? '1' : '0';
    out += ' ';
    append_double(out, g.stall_slots);
    out += '\n';
  }
}

/// Reads a per-link line `key = <n> <n * width values>` (n <= kMaxLinks)
/// and returns the values; `shape` names one entry's fields.
[[nodiscard]] common::Expected<std::vector<std::string_view>> expect_per_link(
    LineReader& reader, std::string_view key, long long width,
    std::string_view shape) {
  const int line_no = reader.line();
  auto tokens = expect_kv(reader, key);
  if (!tokens.ok()) return tokens.status();
  std::vector<std::string_view>& t = tokens.value();
  long long n = 0;
  if (t.empty() || !parse_int_token(t[0], 0, kMaxLinks, &n) ||
      static_cast<long long>(t.size()) != 1 + width * n) {
    return parse_error(line_no, std::string(key) + ": expected '<n> [" +
                                    std::string(shape) + "]...'");
  }
  t.erase(t.begin());
  return tokens;
}

/// Parses the session section.  Structural damage is a hard error, semantic
/// damage degrades to "no session" — the rest of the checkpoint loads, only
/// the stream restarts its session from period 0.  Semantic damage is an
/// out-of-range value (negative delivered bits or measurements, blocked
/// bits outside {0,1}, NaN/negative buffer occupancies, the
/// playing-without-started flags encoding), a replay-impossible cursor, a
/// per-link vector that is not one entry per link, or the injected
/// faults::kSessionCursorCorrupt.
[[nodiscard]] common::Status parse_session(LineReader& reader,
                                           CgCheckpoint* ckpt) {
  long long present = 0;
  {
    auto v = expect_int(reader, "session", 0, 1);
    if (!v.ok()) return v.status();
    present = v.value();
  }
  if (present == 0) return common::Status::Ok();
  StreamCursor s;
  bool semantic_ok = true;
  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "cursor");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    long long next_gop = 0, num_gops = 0, invalidated = 0, exec_dropped = 0;
    if (t.size() != 8 || !parse_int_token(t[0], 0, kMaxGops, &next_gop) ||
        !parse_int_token(t[1], 0, kMaxGops, &num_gops) ||
        !parse_hex64_token(t[2], &s.session_fingerprint) ||
        !parse_double_token(t[3], /*allow_nan=*/false, &s.carryover_stall) ||
        !parse_double_token(t[4], /*allow_nan=*/false,
                            &s.blocked_fraction_sum) ||
        !parse_int_token(t[5], 0, kMaxGops, &invalidated) ||
        !parse_int_token(t[6], 0, 9'223'372'036'854'775'806LL,
                         &exec_dropped) ||
        !parse_hex64_token(t[7], &s.plan_digest)) {
      return parse_error(line_no,
                         "cursor: expected '<next_gop> <num_gops> "
                         "<fingerprint> <stall> <blocked_sum> <invalidated> "
                         "<dropped> <digest>'");
    }
    s.next_gop = static_cast<int>(next_gop);
    s.num_gops = static_cast<int>(num_gops);
    s.invalidated_periods = static_cast<int>(invalidated);
    s.exec_transmissions_dropped = static_cast<int>(exec_dropped);
  }
  {
    const int line_no = reader.line();
    auto t = expect_per_link(reader, "delivered", 1, "<bits>");
    if (!t.ok()) return t.status();
    for (std::string_view token : t.value()) {
      double v = 0.0;
      if (!parse_double_token(token, /*allow_nan=*/false, &v))
        return parse_error(line_no, "delivered: non-numeric value");
      if (v < 0.0) semantic_ok = false;
      s.delivered_bits.push_back(v);
    }
  }
  {
    const int line_no = reader.line();
    auto t = expect_per_link(reader, "blocked", 1, "<0|1>");
    if (!t.ok()) return t.status();
    for (std::string_view token : t.value()) {
      long long b = 0;
      if (!parse_int_token(token, 0, 1'000'000, &b))
        return parse_error(line_no, "blocked: non-numeric value");
      if (b > 1) semantic_ok = false;
      s.blocked.push_back(static_cast<int>(b));
    }
  }
  {
    const int line_no = reader.line();
    auto t = expect_per_link(reader, "buffers", 6,
                             "<occ> <stall> <events> <flags> <hp> <lp>");
    if (!t.ok()) return t.status();
    for (std::size_t i = 0; i < t.value().size(); i += 6) {
      const std::string_view* f = &t.value()[i];
      StreamBufferState b;
      long long events = 0, flags = 0, hp = 0, lp = 0;
      // NaN occupancies parse structurally (a torn double is value damage,
      // not framing damage) and degrade semantically below.
      if (!parse_double_token(f[0], /*allow_nan=*/true,
                              &b.occupancy_seconds) ||
          !parse_double_token(f[1], /*allow_nan=*/true, &b.stall_seconds) ||
          !parse_int_token(f[2], 0, kMaxGops, &events) ||
          !parse_int_token(f[3], 0, 3, &flags) ||
          !parse_int_token(f[4], 0, kMaxGops, &hp) ||
          !parse_int_token(f[5], 0, kMaxGops, &lp)) {
        return parse_error(line_no, "buffers: malformed record");
      }
      b.rebuffer_events = static_cast<int>(events);
      b.flags = static_cast<int>(flags);
      b.hp_gops_delivered = static_cast<int>(hp);
      b.lp_gops_delivered = static_cast<int>(lp);
      if (!(b.occupancy_seconds >= 0.0) || !(b.stall_seconds >= 0.0) ||
          b.flags == 1 || hp > s.next_gop || lp > s.next_gop) {
        semantic_ok = false;
      }
      s.buffers.push_back(b);
    }
  }
  long long num_gops_records = 0;
  {
    auto v = expect_int(reader, "gops", 0, kMaxGops);
    if (!v.ok()) return v.status();
    num_gops_records = v.value();
  }
  s.gops.reserve(static_cast<std::size_t>(num_gops_records));
  for (long long i = 0; i < num_gops_records; ++i) {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "gop");
    if (!tokens.ok()) return tokens.status();
    const auto& t = tokens.value();
    StreamGopRecord g;
    long long gop = 0, on_time = 0;
    if (t.size() != 6 || !parse_int_token(t[0], 0, kMaxGops, &gop) ||
        !parse_double_token(t[1], /*allow_nan=*/false, &g.demand_bits) ||
        !parse_double_token(t[2], /*allow_nan=*/false, &g.schedule_slots) ||
        !parse_double_token(t[3], /*allow_nan=*/false, &g.budget_slots) ||
        !parse_int_token(t[4], 0, 1, &on_time) ||
        !parse_double_token(t[5], /*allow_nan=*/false, &g.stall_slots)) {
      return parse_error(line_no,
                         "gop: expected '<g> <demand> <slots> <budget> "
                         "<on_time> <stall>'");
    }
    g.gop = static_cast<int>(gop);
    g.on_time = on_time != 0;
    if (gop != i || g.demand_bits < 0.0 || g.schedule_slots < 0.0 ||
        g.budget_slots < 0.0 || g.stall_slots < 0.0) {
      semantic_ok = false;
    }
    s.gops.push_back(g);
  }
  // Cursor-level checks: replayability requires a completed-period prefix
  // consistent with the horizon and per-link vectors of the instance's
  // width.
  semantic_ok = semantic_ok && s.next_gop >= 1 && s.num_gops >= 1 &&
                s.next_gop <= s.num_gops &&
                static_cast<long long>(s.gops.size()) == s.next_gop &&
                static_cast<int>(s.delivered_bits.size()) == ckpt->links &&
                static_cast<int>(s.blocked.size()) == ckpt->links &&
                static_cast<int>(s.buffers.size()) == ckpt->links &&
                s.carryover_stall >= 0.0 && s.blocked_fraction_sum >= 0.0 &&
                !common::fault_fires(common::faults::kSessionCursorCorrupt);
  if (!semantic_ok) {
    MMWAVE_LOG_WARN << "checkpoint: session cursor degraded (stream "
                       "session restarts from period 0)";
    ckpt->session_degraded = true;
    return common::Status::Ok();
  }
  ckpt->has_session = true;
  ckpt->session = std::move(s);
  return common::Status::Ok();
}

/// Writes `bytes` to `path`, replacing any previous content.
[[nodiscard]] common::Status write_file(const std::string& path,
                                        std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "cannot open '" + path + "' for writing: " + std::strerror(errno));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    return common::Status::Error(common::ErrorCode::kIoError,
                                 "short write to '" + path + "'");
  }
  return common::Status::Ok();
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t instance_fingerprint(
    const net::Network& net, const std::vector<video::LinkDemand>& demands) {
  FingerprintHasher h;
  const net::NetworkParams& p = net.params();
  h.add_u64(static_cast<std::uint64_t>(net.num_links()));
  h.add_u64(static_cast<std::uint64_t>(net.num_channels()));
  h.add_double(p.p_max_watts);
  h.add_double(p.noise_watts);
  h.add_double(p.bandwidth_hz);
  h.add_double(p.slot_seconds);
  h.add_u64(static_cast<std::uint64_t>(net.num_rate_levels()));
  for (int q = 0; q < net.num_rate_levels(); ++q) {
    h.add_double(net.rate_level(q).sinr_threshold);
    h.add_double(net.rate_level(q).rate_bps);
  }
  for (int l = 0; l < net.num_links(); ++l) {
    const net::Link& link = net.link(l);
    h.add_u64(static_cast<std::uint64_t>(link.tx_node));
    h.add_u64(static_cast<std::uint64_t>(link.rx_node));
    h.add_double(net.noise(l));
    for (int k = 0; k < net.num_channels(); ++k) {
      h.add_double(net.direct_gain(l, k));
      for (int m = 0; m < net.num_links(); ++m) {
        if (m != l) h.add_double(net.cross_gain(m, l, k));
      }
    }
  }
  h.add_u64(static_cast<std::uint64_t>(demands.size()));
  for (const video::LinkDemand& d : demands) {
    h.add_double(d.hp_bits);
    h.add_double(d.lp_bits);
  }
  return h.hash();
}

CgCheckpoint make_checkpoint(const net::Network& net,
                             const std::vector<video::LinkDemand>& demands,
                             const CgResult& result) {
  CgCheckpoint ckpt;
  ckpt.fingerprint = instance_fingerprint(net, demands);
  ckpt.links = net.num_links();
  ckpt.channels = net.num_channels();
  ckpt.iterations = result.iterations;
  ckpt.converged = result.converged;
  ckpt.total_slots = result.total_slots;
  ckpt.lower_bound = result.lower_bound;
  ckpt.duals_hp = result.duals_hp;
  ckpt.duals_lp = result.duals_lp;
  // The duals lines are fixed-width (one value per link): a solve that
  // never produced duals checkpoints zeros rather than a jagged record.
  if (static_cast<int>(ckpt.duals_hp.size()) != ckpt.links)
    ckpt.duals_hp.assign(ckpt.links, 0.0);
  if (static_cast<int>(ckpt.duals_lp.size()) != ckpt.links)
    ckpt.duals_lp.assign(ckpt.links, 0.0);
  ckpt.pool = result.pool;
  ckpt.pool_tau = result.pool_tau;
  if (ckpt.pool_tau.size() != ckpt.pool.size())
    ckpt.pool_tau.assign(ckpt.pool.size(), 0.0);
  return ckpt;
}

std::string serialize_checkpoint(const CgCheckpoint& ckpt) {
  std::string body;
  body.reserve(256 + ckpt.pool.size() * 96);
  body += "fingerprint = ";
  append_hex64(body, ckpt.fingerprint);
  body += "\nlinks = " + std::to_string(ckpt.links);
  body += "\nchannels = " + std::to_string(ckpt.channels);
  body += "\niterations = " + std::to_string(ckpt.iterations);
  body += "\nconverged = ";
  body += ckpt.converged ? '1' : '0';
  body += "\ntotal_slots = ";
  append_double(body, ckpt.total_slots);
  body += "\nlower_bound = ";
  append_double(body, ckpt.lower_bound);
  body += "\nduals_hp =";
  for (double v : ckpt.duals_hp) {
    body += ' ';
    append_double(body, v);
  }
  body += "\nduals_lp =";
  for (double v : ckpt.duals_lp) {
    body += ' ';
    append_double(body, v);
  }
  body += "\ncolumns = " + std::to_string(ckpt.pool.size());
  body += '\n';
  for (std::size_t s = 0; s < ckpt.pool.size(); ++s) {
    append_column(body, ckpt.pool[s],
                  s < ckpt.pool_tau.size() ? ckpt.pool_tau[s] : 0.0);
  }
  append_session(body, ckpt);
  body += "end\n";

  std::string out;
  out.reserve(body.size() + 64);
  out += kMagic;
  out += " v" + std::to_string(kCheckpointVersion);
  out += "\nchecksum = ";
  append_hex64(out, fnv1a64(body));
  out += '\n';
  out += body;
  return out;
}

[[nodiscard]] common::Expected<CgCheckpoint> parse_checkpoint(
    std::string_view text) {
  // ---- Header: magic + version, then the payload checksum ----------------
  const std::size_t first_nl = text.find('\n');
  if (first_nl == std::string_view::npos)
    return parse_error(1, "not a checkpoint (missing header line)");
  const std::string_view header = text.substr(0, first_nl);
  const std::string magic_prefix = std::string(kMagic) + " v";
  if (header.substr(0, magic_prefix.size()) != magic_prefix) {
    return parse_error(1, "not a checkpoint (bad magic '" +
                              std::string(header.substr(0, 40)) + "')");
  }
  long long version = 0;
  if (!parse_int_token(header.substr(magic_prefix.size()), 0, 1'000'000,
                       &version)) {
    return parse_error(1, "malformed version field");
  }
  if (version != kCheckpointVersion) {
    return parse_error(1, "unsupported checkpoint version v" +
                              std::to_string(version) + " (this build reads v" +
                              std::to_string(kCheckpointVersion) + " only)");
  }

  const std::size_t second_nl = text.find('\n', first_nl + 1);
  if (second_nl == std::string_view::npos)
    return parse_error(2, "truncated: missing checksum line");
  const auto checksum_tokens =
      split_tokens(text.substr(first_nl + 1, second_nl - first_nl - 1));
  std::uint64_t declared_checksum = 0;
  if (checksum_tokens.size() != 3 || checksum_tokens[0] != "checksum" ||
      checksum_tokens[1] != "=" ||
      !parse_hex64_token(checksum_tokens[2], &declared_checksum)) {
    return parse_error(2, "malformed checksum line");
  }

  // ---- Checksum over the raw payload bytes BEFORE any field parsing ------
  const std::string_view payload = text.substr(second_nl + 1);
  if (fnv1a64(payload) != declared_checksum) {
    return parse_error(
        2, "checksum mismatch (truncated or corrupted checkpoint)");
  }

  // ---- Payload fields, strict order --------------------------------------
  LineReader reader(payload, /*first_line=*/3);
  CgCheckpoint ckpt;

  {
    const int line_no = reader.line();
    auto tokens = expect_kv(reader, "fingerprint");
    if (!tokens.ok()) return tokens.status();
    if (tokens.value().size() != 1 ||
        !parse_hex64_token(tokens.value()[0], &ckpt.fingerprint)) {
      return parse_error(line_no, "fingerprint: expected 0x + 16 hex digits");
    }
  }
  {
    auto v = expect_int(reader, "links", 1, kMaxLinks);
    if (!v.ok()) return v.status();
    ckpt.links = static_cast<int>(v.value());
  }
  {
    auto v = expect_int(reader, "channels", 1, kMaxChannels);
    if (!v.ok()) return v.status();
    ckpt.channels = static_cast<int>(v.value());
  }
  {
    auto v = expect_int(reader, "iterations", 0, 1'000'000'000);
    if (!v.ok()) return v.status();
    ckpt.iterations = static_cast<int>(v.value());
  }
  {
    auto v = expect_int(reader, "converged", 0, 1);
    if (!v.ok()) return v.status();
    ckpt.converged = v.value() != 0;
  }
  {
    const int line_no = reader.line();
    auto v = expect_double(reader, "total_slots", /*allow_nan=*/false);
    if (!v.ok()) return v.status();
    if (v.value() < 0.0)
      return parse_error(line_no, "total_slots: must be >= 0");
    ckpt.total_slots = v.value();
  }
  {
    auto v = expect_double(reader, "lower_bound", /*allow_nan=*/true);
    if (!v.ok()) return v.status();
    ckpt.lower_bound = v.value();
  }
  {
    auto v = parse_dual_vector(reader, "duals_hp", ckpt.links);
    if (!v.ok()) return v.status();
    ckpt.duals_hp = std::move(v.value());
  }
  {
    auto v = parse_dual_vector(reader, "duals_lp", ckpt.links);
    if (!v.ok()) return v.status();
    ckpt.duals_lp = std::move(v.value());
  }
  long long num_columns = 0;
  {
    auto v = expect_int(reader, "columns", 0, kMaxColumns);
    if (!v.ok()) return v.status();
    num_columns = v.value();
  }

  ckpt.pool.reserve(static_cast<std::size_t>(num_columns));
  ckpt.pool_tau.reserve(static_cast<std::size_t>(num_columns));
  for (long long s = 0; s < num_columns; ++s) {
    sched::Schedule col;
    double tau = 0.0;
    const common::Status st =
        parse_column(reader, ckpt.links, ckpt.channels, &col, &tau);
    if (!st.ok()) return st;
    ckpt.pool.push_back(std::move(col));
    ckpt.pool_tau.push_back(tau);
  }

  // ---- Advisory section: the stream-session cursor -----------------------
  {
    const common::Status st = parse_session(reader, &ckpt);
    if (!st.ok()) return st;
  }

  // ---- Terminator + no trailing garbage ----------------------------------
  {
    std::string_view line;
    const int line_no = reader.line();
    if (!reader.next(&line) || line != "end")
      return parse_error(line_no, "truncated: missing 'end' terminator");
  }
  if (!reader.at_end()) {
    // serialize always ends with "end\n": exactly one empty tail token.
    std::string_view line;
    if (reader.next(&line) && !line.empty())
      return parse_error(reader.line() - 1, "trailing garbage after 'end'");
    if (!reader.at_end())
      return parse_error(reader.line(), "trailing garbage after 'end'");
  }
  return ckpt;
}

[[nodiscard]] common::Status write_file_atomic(const std::string& path,
                                               std::string_view text) {
  const std::string tmp = path + ".tmp";
  if (common::Status st = write_file(tmp, text); !st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "cannot rename '" + tmp + "' to '" + path + "': " +
            std::strerror(errno));
  }
  return common::Status::Ok();
}

[[nodiscard]] common::Status save_checkpoint(const CgCheckpoint& ckpt,
                                             const std::string& path,
                                             std::int64_t* bytes_written) {
  if (common::fault_fires(common::faults::kCheckpointWriteFail)) {
    return common::Status::Error(common::ErrorCode::kIoError,
                                 "checkpoint write failed (injected fault)");
  }
  const std::string text = serialize_checkpoint(ckpt);
  if (common::fault_fires(common::faults::kCheckpointTornWrite)) {
    // Crash window: half of the temp file lands and the rename never runs.
    // `path` still holds the previous save; the stray temp file is
    // overwritten by the next save.
    (void)write_file(path + ".tmp",
                     std::string_view(text).substr(0, text.size() / 2));
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "checkpoint write torn before the rename (injected fault)");
  }
  const common::Status st = write_file_atomic(path, text);
  if (st.ok() && bytes_written != nullptr)
    *bytes_written = static_cast<std::int64_t>(text.size());
  return st;
}

[[nodiscard]] common::Expected<CgCheckpoint> load_checkpoint(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return common::Status::Error(
        common::ErrorCode::kIoError,
        "cannot open checkpoint '" + path + "': " + std::strerror(errno));
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return common::Status::Error(common::ErrorCode::kIoError,
                                 "read error on checkpoint '" + path + "'");
  }
  // Scripted corruption: flip one payload byte; the checksum must catch it
  // and the caller must degrade to a cold start, never use the bad state.
  if (common::fault_fires(common::faults::kCheckpointCorrupt) &&
      !text.empty()) {
    text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 0x01);
    MMWAVE_LOG_WARN << "checkpoint '" << path
                    << "': payload byte flipped (injected fault)";
  }
  return parse_checkpoint(text);
}

}  // namespace mmwave::core
