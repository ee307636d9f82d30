// Crash-safe file I/O shared by every snapshot format (fl::Checkpoint,
// svc::SchedulerService snapshots).
//
// write_file_atomic() writes to `path` + ".tmp" and renames over `path`,
// so a crash mid-write never leaves a torn file under the final name —
// the reader either sees the old complete snapshot or the new one.
// Callers wrap the thrown std::runtime_error into their own error type
// (CheckpointError, ServiceError) to keep messages domain-specific.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace helcfl::util {

/// Atomically replaces `path` with `bytes` via tmp + rename.  Throws
/// std::runtime_error naming the failing path on any I/O error; the tmp
/// file is removed on failure.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Reads all of `path`.  Throws std::runtime_error naming the path if the
/// file cannot be opened or read.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// `path` with every occurrence of `token` (e.g. "{round}") replaced by
/// `value` — how cadenced snapshot paths name each file.
std::string expand_path_token(std::string path, std::string_view token,
                              std::uint64_t value);

}  // namespace helcfl::util
