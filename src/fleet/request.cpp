#include "fleet/request.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>

namespace mmwave::fleet {

const char* to_string(FleetOp op) {
  switch (op) {
    case FleetOp::kSolve: return "solve";
    case FleetOp::kResolve: return "resolve";
    case FleetOp::kStream: return "stream";
  }
  return "unknown";
}

const char* to_string(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk: return "ok";
    case RequestOutcome::kDegraded: return "degraded";
    case RequestOutcome::kShed: return "shed";
    case RequestOutcome::kError: return "error";
    case RequestOutcome::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

using common::ErrorCode;
using common::Status;

[[nodiscard]] Status bad(const std::string& what) {
  return Status::Error(ErrorCode::kInvalidInput, "request: " + what);
}

/// [A-Za-z0-9._-]{1,64}: an id is written verbatim as one queue-manifest
/// line and appended to the state path of a stream request's session log,
/// so a newline or a '/' would break exactly-once or escape that prefix.
bool valid_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Byte cursor over one request line.
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }
};

/// Parses a double-quoted JSON string (the minimal escape set).
[[nodiscard]] Status parse_string(Cursor& cur, std::string* out) {
  if (!cur.eat('"')) return bad("expected '\"'");
  out->clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return Status::Ok();
    if (c == '\\') {
      if (cur.pos >= cur.text.size()) break;
      const char esc = cur.text[cur.pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        default: return bad("unsupported string escape");
      }
    } else {
      out->push_back(c);
    }
  }
  return bad("unterminated string");
}

/// Scans one JSON number token into `token` (validation happens at use).
[[nodiscard]] Status parse_number_token(Cursor& cur, std::string* token) {
  cur.skip_ws();
  token->clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos];
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+' || c == '.' || c == 'e' || c == 'E') {
      token->push_back(c);
      ++cur.pos;
    } else {
      break;
    }
  }
  if (token->empty()) return bad("expected a number");
  return Status::Ok();
}

[[nodiscard]] Status to_double(const std::string& key,
                               const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return bad(key + ": malformed number '" + token + "'");
  }
  return Status::Ok();
}

[[nodiscard]] Status to_int(const std::string& key, const std::string& token,
                            long long lo, long long hi, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return bad(key + ": expected an integer, got '" + token + "'");
  }
  if (*out < lo || *out > hi) {
    return bad(key + ": " + token + " outside [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "]");
  }
  return Status::Ok();
}

[[nodiscard]] Status range_check(const std::string& key, double value,
                                 double lo, double hi) {
  if (!(value >= lo) || !(value <= hi)) {
    return bad(key + ": value outside [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
  }
  return Status::Ok();
}

}  // namespace

[[nodiscard]] common::Expected<FleetRequest> parse_request_line(
    const std::string& line) {
  Cursor cur{line};
  if (!cur.eat('{')) return bad("expected a JSON object");
  FleetRequest req;
  std::set<std::string> seen;
  bool first = true;
  while (true) {
    if (cur.eat('}')) break;
    if (!first && !cur.eat(',')) return bad("expected ',' or '}'");
    first = false;
    std::string key;
    if (Status st = parse_string(cur, &key); !st.ok()) return st;
    if (!cur.eat(':')) return bad("expected ':' after key '" + key + "'");
    if (!seen.insert(key).second) return bad("duplicate key '" + key + "'");

    if (key == "id" || key == "op" || key == "pricing") {
      std::string value;
      if (Status st = parse_string(cur, &value); !st.ok()) return st;
      if (key == "id") {
        req.id = value;
      } else if (key == "op") {
        if (value == "solve") req.op = FleetOp::kSolve;
        else if (value == "resolve") req.op = FleetOp::kResolve;
        else if (value == "stream") req.op = FleetOp::kStream;
        else return bad("op: expected solve|resolve|stream, got '" + value + "'");
      } else {
        if (value == "heuristic") req.pricing = core::PricingMode::HeuristicOnly;
        else if (value == "hybrid") req.pricing = core::PricingMode::HeuristicThenExact;
        else if (value == "exact") req.pricing = core::PricingMode::ExactAlways;
        else return bad("pricing: expected heuristic|hybrid|exact, got '" +
                        value + "'");
      }
    } else if (key == "block_links") {
      if (!cur.eat('[')) return bad("block_links: expected an array");
      if (!cur.eat(']')) {
        while (true) {
          std::string token;
          if (Status st = parse_number_token(cur, &token); !st.ok()) return st;
          long long v = 0;
          if (Status st = to_int(key, token, 0, 4095, &v); !st.ok()) return st;
          req.block_links.push_back(static_cast<int>(v));
          if (cur.eat(']')) break;
          if (!cur.eat(',')) return bad("block_links: expected ',' or ']'");
        }
      }
    } else {
      std::string token;
      if (Status st = parse_number_token(cur, &token); !st.ok()) return st;
      long long iv = 0;
      double dv = 0.0;
      if (key == "links") {
        if (Status st = to_int(key, token, 1, 4096, &iv); !st.ok()) return st;
        req.links = static_cast<int>(iv);
      } else if (key == "channels") {
        if (Status st = to_int(key, token, 1, 1024, &iv); !st.ok()) return st;
        req.channels = static_cast<int>(iv);
      } else if (key == "levels") {
        if (Status st = to_int(key, token, 1, 64, &iv); !st.ok()) return st;
        req.levels = static_cast<int>(iv);
      } else if (key == "gops") {
        if (Status st = to_int(key, token, 1, 1'000'000, &iv); !st.ok())
          return st;
        req.gops = static_cast<int>(iv);
      } else if (key == "seed") {
        if (Status st = to_int(key, token, 0,
                               std::numeric_limits<long long>::max(), &iv);
            !st.ok())
          return st;
        req.seed = static_cast<std::uint64_t>(iv);
      } else if (key == "gamma_scale") {
        if (Status st = to_double(key, token, &dv); !st.ok()) return st;
        if (Status st = range_check(key, dv, 1e-9, 1e9); !st.ok()) return st;
        req.gamma_scale = dv;
      } else if (key == "demand_scale") {
        if (Status st = to_double(key, token, &dv); !st.ok()) return st;
        if (Status st = range_check(key, dv, 1e-18, 1e18); !st.ok()) return st;
        req.demand_scale = dv;
      } else if (key == "deadline") {
        if (Status st = to_double(key, token, &dv); !st.ok()) return st;
        if (Status st = range_check(key, dv, 0.0, 1e9); !st.ok()) return st;
        req.deadline_sec = dv;
      } else if (key == "block_atten") {
        if (Status st = to_double(key, token, &dv); !st.ok()) return st;
        if (Status st = range_check(key, dv, 0.0, 1.0); !st.ok()) return st;
        req.block_atten = dv;
      } else if (key == "p_block") {
        if (Status st = to_double(key, token, &dv); !st.ok()) return st;
        if (Status st = range_check(key, dv, 0.0, 1.0); !st.ok()) return st;
        req.p_block = dv;
      } else {
        return bad("unknown key '" + key + "'");
      }
    }
  }
  if (!cur.at_end()) return bad("trailing bytes after the object");
  if (req.id.empty()) return bad("missing required key 'id'");
  if (!valid_id(req.id)) return bad("id: expected 1-64 of [A-Za-z0-9._-]");
  for (int l : req.block_links) {
    if (l >= req.links) {
      return bad("block_links: link " + std::to_string(l) + " outside [0, " +
                 std::to_string(req.links) + ")");
    }
  }
  return req;
}

std::string RequestRecord::to_json_line() const {
  auto escape = [](const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else if (c == '\t') {
        out += "\\t";
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        out.push_back(c);
      }
    }
    return out;
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"total_slots\":%.17g,\"iterations\":%d,"
                "\"converged\":%s,\"wait_seconds\":%.6f,"
                "\"exec_seconds\":%.6f",
                total_slots, iterations, converged ? "true" : "false",
                wait_seconds, exec_seconds);
  std::string out = "{\"id\":\"" + escape(id) + "\",\"index\":" +
                    std::to_string(index) + ",\"op\":\"" +
                    fleet::to_string(op) + "\",\"outcome\":\"" +
                    fleet::to_string(outcome) + "\",\"code\":\"" +
                    common::to_string(code) + "\",\"message\":\"" +
                    escape(message) + "\"," + buf + "}";
  return out;
}

}  // namespace mmwave::fleet
