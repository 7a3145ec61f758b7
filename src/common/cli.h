// Minimal --flag=value command-line parsing for the tools, bench and
// example binaries.  Flags are read through getters that take a default.
// Every getter and has() records the name it was asked for, so a program
// that has read all the flags it accepts can call check_unused() and
// reject the rest (every binary does, with exit status 2) instead of
// silently ignoring a typo or a stray argument.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace mmwave::common {

class CliFlags {
 public:
  /// Parses argv.  Accepted syntaxes: --name=value, --name value,
  /// --bool-flag (implicit true).  Returns false (and fills error()) on
  /// malformed input; callers typically print usage and exit.
  bool parse(int argc, const char* const* argv);

  const std::string& error() const { return error_; }

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Numeric flags: an absent flag yields the default, but a present flag
  /// whose value is not fully numeric ("--links=abc", "--links=10x") or out
  /// of [lo, hi] yields kInvalidInput with a one-line "--name: ..."
  /// diagnosis, never a silent zero.
  [[nodiscard]] Expected<std::int64_t> get_int_checked(
      const std::string& name, std::int64_t def,
      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
      std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] Expected<double> get_double_checked(
      const std::string& name, double def,
      double lo = -std::numeric_limits<double>::infinity(),
      double hi = std::numeric_limits<double>::infinity()) const;

  /// Comma-separated integer list, e.g. --links=10,15,20.  An absent flag
  /// yields the default, but every token of a present flag must be a full
  /// integer ("--block-links=1,y" and "--block-links=1," are kInvalidInput
  /// naming the flag, never link 0).
  [[nodiscard]] Expected<std::vector<std::int64_t>> get_int_list_checked(
      const std::string& name, const std::vector<std::int64_t>& def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of the flags on the command line that no getter or has() has
  /// asked for yet, in sorted order.  Empty once every given flag was read.
  std::vector<std::string> unread() const;

  /// The typo guard, called after the last flag read and before any work:
  /// kInvalidInput with a one-line message naming every unread flag
  /// ("unknown flag --linkz, --seedz"), or else every positional argument
  /// past the first `positional_taken` ("unexpected argument 'stray'");
  /// Ok when the program read everything it was given.
  [[nodiscard]] Status check_unused(std::size_t positional_taken = 0) const;

 private:
  /// The raw value of `name`, or nullptr when absent; records the read.
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
  mutable std::set<std::string> read_;
};

}  // namespace mmwave::common
