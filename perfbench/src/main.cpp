// perfbench: one command per workload prints every end-to-end metric, or
// with --trace 1 every per-layer metric, and checks the outputs.
//
//   perfbench --workload sync-cnn|async-mlp|svc-tcp --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// stdout: a detail line (host block, every metric with its sample count),
// then, as the last line, {"correct", "attempted", "failed", "metrics"}.
// The detail line is also written to DIR/result-<workload>-<seed>-<trace>.json
// and a traced run writes its spans to DIR/spans-<workload>.jsonl.
// Exit code 0 when every check passed, 1 when one failed, 2 on an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "tensor/ops.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

// The metrics the benchmark publishes; BENCHMARK.json lists the same.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "items_per_s", "round_ms_p50", "round_ms_p95",
};
const std::vector<std::string> kPerLayer = {
    "sched.decide_ms",
    "fl.train_ms_per_round",
    "fl.eval_ms_per_round",
    "fl.round_coverage_share",
    "nn.conv2d.forward_ms",
    "nn.conv2d.backward_ms",
    "nn.dense.forward_ms",
    "nn.dense.backward_ms",
    "nn.other_ms",
    "tensor.gemm_gflop_per_round",
    "tensor.gemm_gflops",
    "util.pool_busy_share",
    "fl.engine_ms_per_round",
    "fl.clients_dispatched",
    "fl.clients_aggregated",
    "fl.useful_share",
    "svc.client_us_per_report",
    "transport.send_us_per_report",
    "transport.wait_ms_per_round",
    "svc.ingest_us_per_report",
    "svc.apply_us_per_report",
    "svc.outbox_us_per_report",
    "svc.answer_ms",
    "svc.frames_per_round",
    "svc.bytes_per_round",
    "svc.retries",
    "svc.ingress_shed",
    "svc.frames_rejected",
    "transport.overhead_ms_per_round",
    "trace.overhead_share.sync-cnn",
    "trace.overhead_share.async-mlp",
    "trace.overhead_share.svc-tcp",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (!seen.insert(flag).second) throw std::invalid_argument("repeated " + flag);
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "sync-cnn" && args.workload != "async-mlp" &&
      args.workload != "svc-tcp") {
    throw std::invalid_argument("--workload must be sync-cnn, async-mlp or svc-tcp");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (args.trace != 0 && args.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return args;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string host_block(const Args& args) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel_isa\": " << json_string(std::string(helcfl::tensor::kernel_isa()))
      << ", \"compiler\": " << json_string(std::string("gcc ") + __VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << json_string(args.git_sha)
      << ", \"source_digest\": " << json_string(args.source_digest) << "}";
  return out.str();
}

Report run(const Args& args) {
  perfbench::RunSettings settings;
  settings.seed = args.seed;
  settings.seconds = args.seconds;
  settings.out_dir = args.out_dir;
  if (args.trace == 0) {
    if (args.workload == "sync-cnn") return perfbench::run_sync_cnn(settings);
    if (args.workload == "async-mlp") return perfbench::run_async_mlp(settings);
    return perfbench::run_svc_tcp(settings);
  }
  // Every per-layer metric is measured on the workload that exercises its
  // layer, so a traced run covers all three, whichever one is named.
  Report report = perfbench::trace_sync_cnn(settings);
  report.merge(perfbench::trace_async_mlp(settings));
  report.merge(perfbench::trace_svc_tcp(settings));
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Report report;
  try {
    args = parse_args(argc, argv);
    helcfl::tensor::set_kernel_threads(1);
    report = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : report.metrics) by_name[m.name] = &m;
  const std::vector<std::string>& published = args.trace == 0 ? kEndToEnd : kPerLayer;
  for (const std::string& name : published) {
    if (by_name.count(name) == 0) {
      std::fprintf(stderr, "perfbench: %s produced no metric %s\n", args.workload.c_str(),
                   name.c_str());
      return 2;
    }
  }

  std::ostringstream detail;
  detail << "{\"host\": " << host_block(args) << ", \"workload\": "
         << json_string(args.workload) << ", \"seed\": " << args.seed
         << ", \"seconds\": " << json_number(args.seconds) << ", \"trace\": " << args.trace
         << ", \"failed_checks\": [";
  for (std::size_t i = 0; i < report.failed_checks.size(); ++i) {
    detail << (i ? ", " : "") << json_string(report.failed_checks[i]);
  }
  detail << "], \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    detail << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
           << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
           << ", \"samples\": " << m.samples << "}";
  }
  detail << "}}";

  for (const std::string& failure : report.failed_checks) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %-8s n=%zu\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples);
  }
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/result-" + args.workload + "-" +
                             std::to_string(args.seed) + "-" + std::to_string(args.trace) +
                             ".json";
    std::ofstream(path) << detail.str() << "\n";
  }

  std::ostringstream last;
  last << "{\"correct\": " << (report.failed_checks.empty() ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < published.size(); ++i) {
    const Metric& m = *by_name[published[i]];
    last << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
         << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  last << "}}";
  std::printf("%s\n%s\n", detail.str().c_str(), last.str().c_str());
  std::fflush(stdout);
  return report.failed_checks.empty() ? 0 : 1;
}
