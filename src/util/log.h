// Small leveled logger for simulation progress output.
//
// Not a general-purpose logging framework — just a global level filter and
// a stderr sink — but it IS thread-safe: the parallel round engine logs
// from pool workers, so each message is formatted into one buffer and
// written to stderr with a single fwrite (messages never interleave), and
// the level filter is an atomic.
#pragma once

#include <string_view>

namespace helcfl::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that will be emitted.
void set_log_level(LogLevel level);

/// Current global level.
LogLevel log_level();

/// Emits `message` to stderr with a level tag if `level` passes the filter.
void log(LogLevel level, std::string_view message);

void log_info(std::string_view message);
void log_warn(std::string_view message);
void log_error(std::string_view message);

}  // namespace helcfl::util
