// Host block of every machine-readable bench artefact (BENCH_*.json): the
// dispatched kernel ISA, hardware threads, compiler, build type, and the
// commit passed as --git-sha=<sha> ("unknown" when omitted), so a number
// always says where it came from.  Shared by bench_json.h's reporter and
// the benches that write their JSON by hand.
#pragma once

#include <ostream>
#include <string>
#include <thread>

#include "tensor/ops.h"

#ifndef HELCFL_BUILD_TYPE
#define HELCFL_BUILD_TYPE "unknown"
#endif

namespace helcfl::bench {

/// Escapes `"` and `\` for a JSON string literal.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Writes the `"kernel_isa"` and `"host"` members, each on its own
/// two-space-indented line ending in a comma, right after the opening `{`.
inline void write_host_json(std::ostream& out, const std::string& git_sha) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out << "  \"kernel_isa\": \"" << tensor::kernel_isa() << "\",\n"
      << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << json_escape(compiler)
      << "\", \"build_type\": \"" << json_escape(HELCFL_BUILD_TYPE)
      << "\", \"git_sha\": \"" << json_escape(git_sha) << "\"},\n";
}

}  // namespace helcfl::bench
