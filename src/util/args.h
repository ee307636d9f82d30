// Minimal command-line argument parser for the example/CLI binaries.
//
// Grammar (kept unambiguous on purpose):
//   --key=value   an option with a value
//   --flag        a boolean flag
//   anything else a positional argument
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace helcfl::util {

class ArgParser {
 public:
  /// Parses argv[1..argc); argv[0] (the program name) is skipped.  Throws
  /// std::invalid_argument naming the option when one name is given twice,
  /// as a bare flag or with a value.
  ArgParser(int argc, const char* const* argv);

  /// True if `--name` appeared as a bare flag or with any value.
  bool has(std::string_view name) const;

  /// The value of `--name=value`; nullopt if absent or a bare flag.
  std::optional<std::string> get(std::string_view name) const;

  /// Typed accessors with defaults.  Throw std::invalid_argument when the
  /// option is present but not parseable as the requested type.
  std::string get_or(std::string_view name, std::string fallback) const;
  double get_double_or(std::string_view name, double fallback) const;
  std::int64_t get_int_or(std::string_view name, std::int64_t fallback) const;
  bool get_bool_or(std::string_view name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Option names that were provided but never queried through any
  /// accessor — typo detection for the CLI.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::set<std::string, std::less<>> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string, std::less<>> queried_;
};

}  // namespace helcfl::util
