#include "util/args.h"

#include <charconv>
#include <stdexcept>

namespace helcfl::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string_view name = body.substr(0, eq);
    if (flags_.contains(name) || values_.contains(name)) {
      throw std::invalid_argument("--" + std::string(name) + " is given more than once");
    }
    if (eq == std::string_view::npos) {
      flags_.emplace(name);
    } else {
      values_.emplace(std::string(name), std::string(body.substr(eq + 1)));
    }
  }
}

bool ArgParser::has(std::string_view name) const {
  queried_.emplace(name);
  return flags_.contains(name) || values_.contains(name);
}

std::optional<std::string> ArgParser::get(std::string_view name) const {
  queried_.emplace(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_or(std::string_view name, std::string fallback) const {
  return get(name).value_or(std::move(fallback));
}

double ArgParser::get_double_or(std::string_view name, double fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*raw, &consumed);
    if (consumed != raw->size()) throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + std::string(name) + "=" + *raw +
                                " is not a number");
  }
}

std::int64_t ArgParser::get_int_or(std::string_view name, std::int64_t fallback) const {
  const auto raw = get(name);
  if (!raw) return fallback;
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(raw->data(), raw->data() + raw->size(), value);
  if (ec != std::errc() || ptr != raw->data() + raw->size()) {
    throw std::invalid_argument("--" + std::string(name) + "=" + *raw +
                                " is not an integer");
  }
  return value;
}

std::uint64_t ArgParser::get_count_or(std::string_view name,
                                      std::uint64_t fallback) const {
  if (!get(name)) return fallback;
  const std::int64_t value = get_int_or(name, 0);
  if (value < 0) {
    throw std::invalid_argument("--" + std::string(name) + "=" +
                                std::to_string(value) + " must be >= 0");
  }
  return static_cast<std::uint64_t>(value);
}

bool ArgParser::get_bool_or(std::string_view name, bool fallback) const {
  queried_.emplace(name);
  if (flags_.contains(name)) return true;  // bare --flag means true
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes") return true;
  if (it->second == "false" || it->second == "0" || it->second == "no") return false;
  throw std::invalid_argument("--" + std::string(name) + "=" + it->second +
                              " is not a boolean");
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> names;
  for (const auto& [key, value] : values_) {
    if (!queried_.contains(key)) names.push_back(key);
  }
  for (const auto& flag : flags_) {
    if (!queried_.contains(flag)) names.push_back(flag);
  }
  return names;
}

}  // namespace helcfl::util
