#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace mmwave::common {

namespace {

[[nodiscard]] Status flag_error(const std::string& name, const std::string& what) {
  return Status::Error(ErrorCode::kInvalidInput, "--" + name + ": " + what);
}

/// Full-token base-10 integer: false on an empty token, trailing bytes or
/// overflow.
bool parse_full_int(const std::string& raw, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || end != raw.c_str() + raw.size() || errno == ERANGE)
    return false;
  *out = v;
  return true;
}

}  // namespace

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" when the next token is not itself a flag, else a bare
    // boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
  return true;
}

const std::string* CliFlags::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::vector<std::string> CliFlags::unread() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) out.push_back(name);
  }
  return out;
}

[[nodiscard]] Status CliFlags::check_unused(
    std::size_t positional_taken) const {
  std::string names;
  for (const std::string& name : unread())
    names += (names.empty() ? "--" : ", --") + name;
  if (!names.empty())
    return Status::Error(ErrorCode::kInvalidInput, "unknown flag " + names);
  for (std::size_t i = positional_taken; i < positional_.size(); ++i)
    names += (names.empty() ? "'" : ", '") + positional_[i] + "'";
  if (!names.empty())
    return Status::Error(ErrorCode::kInvalidInput,
                         "unexpected argument " + names);
  return Status::Ok();
}

bool CliFlags::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& def) const {
  const std::string* raw = find(name);
  return raw == nullptr ? def : *raw;
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  const std::string* raw = find(name);
  if (raw == nullptr) return def;
  return *raw == "true" || *raw == "1" || *raw == "yes";
}

[[nodiscard]] Expected<std::int64_t> CliFlags::get_int_checked(const std::string& name,
                                                 std::int64_t def,
                                                 std::int64_t lo,
                                                 std::int64_t hi) const {
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& raw = *found;
  long long v = 0;
  if (!parse_full_int(raw, &v))
    return flag_error(name, "expected an integer, got '" + raw + "'");
  if (v < lo || v > hi)
    return flag_error(name, "value " + std::to_string(v) +
                                " out of range [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return static_cast<std::int64_t>(v);
}

[[nodiscard]] Expected<double> CliFlags::get_double_checked(const std::string& name,
                                              double def, double lo,
                                              double hi) const {
  const std::string* found = find(name);
  if (found == nullptr) return def;
  const std::string& raw = *found;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size() || errno == ERANGE)
    return flag_error(name, "expected a number, got '" + raw + "'");
  if (std::isnan(v) || v < lo || v > hi) {
    std::ostringstream os;
    os << "value " << raw << " out of range [" << lo << ", " << hi << "]";
    return flag_error(name, os.str());
  }
  return v;
}

[[nodiscard]] Expected<std::vector<std::int64_t>> CliFlags::get_int_list_checked(
    const std::string& name, const std::vector<std::int64_t>& def) const {
  const std::string* raw = find(name);
  if (raw == nullptr) return def;
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = raw->find(',', pos);
    long long v = 0;
    if (!parse_full_int(raw->substr(pos, comma - pos), &v)) {
      return flag_error(name, "expected a comma-separated integer list, got '" +
                                  *raw + "'");
    }
    out.push_back(v);
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

}  // namespace mmwave::common
