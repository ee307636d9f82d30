// Machine-readable benchmark output.
//
// The micro benches report to the console as usual and additionally write
// a small JSON file (one object per benchmark: name, ns/op, items/sec,
// iterations, plus any user counters such as p99 latencies) so CI and
// before/after comparisons can diff numbers without scraping console
// tables.  The file is written only when --bench-json=<path> names it, so
// a filtered run never replaces a checked-in baseline.  It opens with the
// host block of bench_host.h.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_host.h"
#include "tensor/ops.h"

namespace helcfl::bench {

/// Display reporter that forwards to the stock console reporter while
/// collecting per-run rows, then writes them as JSON in Finalize().
/// (google-benchmark's dedicated file-reporter slot insists on
/// --benchmark_out, so the JSON lives on the display path instead.)
class JsonTeeReporter : public benchmark::BenchmarkReporter {
 public:
  JsonTeeReporter(std::string path, std::string git_sha)
      : path_(std::move(path)), git_sha_(std::move(git_sha)) {}

  bool ReportContext(const Context& context) override {
    return console_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& report) override {
    console_.ReportRuns(report);
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<double>(run.iterations);
      row.ns_per_op = run.iterations > 0
                          ? run.real_accumulated_time /
                                static_cast<double>(run.iterations) * 1e9
                          : 0.0;
      // Wall-clock seconds the measured iterations actually took — a rate
      // (items_per_second) without its measurement window is unauditable.
      row.duration_s = run.real_accumulated_time;
      // Per-row kernel context: benchmarks that sweep the kernel thread
      // count publish a "threads" counter; everything else ran at the
      // process default.  The ISA is resolved once per process but recorded
      // per row so scaling-curve diffs are self-describing.
      row.threads = static_cast<double>(tensor::kernel_threads());
      row.isa = tensor::kernel_isa();
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") {
          row.items_per_sec = static_cast<double>(counter);
        } else if (name == "threads") {
          row.threads = static_cast<double>(counter);
        } else if (name == "flops") {
          // Rate counter: flops/sec over the measurement window.
          row.gflops = static_cast<double>(counter) / 1e9;
        } else {
          row.counters.emplace_back(name, static_cast<double>(counter));
        }
      }
      rows_.push_back(std::move(row));
    }
  }

  void Finalize() override {
    console_.Finalize();
    if (path_.empty()) return;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench_json: cannot open " << path_ << "\n";
      return;
    }
    out << "{\n";
    write_host_json(out, git_sha_);
    out << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << "    {\"name\": \"" << json_escape(r.name) << "\", \"ns_per_op\": "
          << r.ns_per_op << ", \"items_per_sec\": " << r.items_per_sec
          << ", \"duration_s\": " << r.duration_s
          << ", \"iterations\": " << r.iterations
          << ", \"threads\": " << r.threads
          << ", \"isa\": \"" << json_escape(r.isa) << "\"";
      if (r.gflops > 0.0) out << ", \"gflops\": " << r.gflops;
      for (const auto& [name, value] : r.counters) {
        out << ", \"" << json_escape(name) << "\": " << value;
      }
      out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << rows_.size() << " benchmark rows to " << path_
              << "\n";
  }

 private:
  struct Row {
    std::string name;
    double ns_per_op = 0.0;
    double items_per_sec = 0.0;
    double duration_s = 0.0;
    double iterations = 0.0;
    double threads = 1.0;   ///< kernel threads the row ran with
    double gflops = 0.0;    ///< from the "flops" rate counter; 0 = not set
    std::string isa;        ///< kernel ISA the row ran with
    /// Every other user counter (e.g. p99 latencies), in counter order.
    std::vector<std::pair<std::string, double>> counters;
  };

  benchmark::ConsoleReporter console_;
  std::string path_;
  std::string git_sha_;
  std::vector<Row> rows_;
};

/// Drop-in replacement for benchmark_main: console output plus, given
/// `--bench-json=<path>`, a JSON file.  Recognizes and strips that flag and
/// `--git-sha=<sha>`.  The display is always console text, so any
/// `--benchmark_format` other than `console` is refused (exit code 1)
/// rather than ignored.
inline int run_benchmarks_with_json(int argc, char** argv) {
  std::string path;
  std::string git_sha = "unknown";
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    constexpr const char* kJsonFlag = "--bench-json=";
    constexpr const char* kShaFlag = "--git-sha=";
    constexpr const char* kFormatFlag = "--benchmark_format=";
    if (std::strncmp(*it, kFormatFlag, std::strlen(kFormatFlag)) == 0 &&
        std::strcmp(*it + std::strlen(kFormatFlag), "console") != 0) {
      std::cerr << "error: " << *it
                << " is not supported: the display is always console text.  "
                   "Write JSON rows with --bench-json=PATH, or the library's own "
                   "json/csv with --benchmark_out=PATH --benchmark_out_format=json|csv\n";
      return 1;
    }
    if (std::strncmp(*it, kJsonFlag, std::strlen(kJsonFlag)) == 0) {
      path = *it + std::strlen(kJsonFlag);
      it = args.erase(it);
    } else if (std::strncmp(*it, kShaFlag, std::strlen(kShaFlag)) == 0) {
      git_sha = *it + std::strlen(kShaFlag);
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonTeeReporter reporter(path, git_sha);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace helcfl::bench

#define HELCFL_BENCH_JSON_MAIN()                                  \
  int main(int argc, char** argv) {                               \
    return helcfl::bench::run_benchmarks_with_json(argc, argv);   \
  }
