#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <string>

namespace helcfl::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

std::string_view tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log(LogLevel level, std::string_view message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // One formatted buffer, one fwrite: POSIX stdio streams lock around each
  // call, so concurrent messages from pool workers never interleave.
  std::string line;
  line.reserve(message.size() + 10);
  line += '[';
  line += tag(level);
  line += "] ";
  line += message;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

void log_info(std::string_view message) { log(LogLevel::kInfo, message); }
void log_warn(std::string_view message) { log(LogLevel::kWarn, message); }
void log_error(std::string_view message) { log(LogLevel::kError, message); }

}  // namespace helcfl::util
