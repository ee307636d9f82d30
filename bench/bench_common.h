// Shared helpers for the reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/simulation.h"
#include "util/args.h"

namespace helcfl::bench {

/// The evaluation setup of the paper's Section VII-A, with our documented
/// substitutions (DESIGN.md): Q = 100 users, C = 0.1, J = 300 rounds,
/// synthetic CIFAR-10, MLP, C_model = 4 Mb.
inline sim::ExperimentConfig evaluation_config(bool noniid, std::uint64_t seed = 7) {
  sim::ExperimentConfig config = sim::paper_config();
  config.noniid = noniid;
  config.trainer.max_rounds = 300;
  config.trainer.eval_every = 5;
  // All hardware threads: the parallel round engine is bitwise
  // deterministic, so sweep CSVs are unchanged by the worker count.
  config.trainer.num_threads = 0;
  config.sl_eval_every = 25;
  config.sl_eval_users = 10;
  config.seed = seed;
  return config;
}

/// Ensures ./bench_results exists and returns the CSV path inside it.
inline std::string csv_path(const std::string& name) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + name;
}

/// Shared checkpoint/resume flags (docs/CHECKPOINT.md).  Benches run
/// several schemes, so the flags carry path *prefixes*: each scheme's
/// checkpoint lands at `<prefix>_<scheme>.ckpt`, and a scheme resumes only
/// when its own file already exists (a sweep interrupted halfway restarts
/// the unfinished scheme from its last cadence point and re-skips the
/// finished ones instantly via their final checkpoints).
struct CheckpointFlags {
  std::size_t every = 0;       ///< --checkpoint-every (0 = off)
  std::string path_prefix;     ///< --checkpoint-prefix
  std::string resume_prefix;   ///< --resume-prefix
};

/// The flags every bench accepts.
struct BenchFlags {
  /// --trace-out, --trace-level, --profile, --chrome-trace
  /// (docs/OBSERVABILITY.md).  Attach the sinks to each run with
  /// `config.trainer.obs = observability.instruments()` (or pass them to
  /// run_scheme); when a bench runs several experiments, all of their
  /// events land in one trace, separated by `run_start` events.  Call
  /// `finish()` once after the last run; with no flags given everything is
  /// inert.
  sim::Observability observability;
  /// --checkpoint-every, --checkpoint-prefix (default "bench_results/ckpt"
  /// when a cadence is given) and --resume-prefix.
  CheckpointFlags checkpoint;
};

/// Parses the shared flags once, then hands the same parser to `own` (when
/// given) to read the bench's own flags.  A bad or repeated flag, shared or
/// own, prints `error: ...` and exits 1 before any run starts.
inline BenchFlags parse_bench_flags(
    int argc, char** argv,
    const std::function<void(const util::ArgParser&)>& own = nullptr) {
  try {
    const util::ArgParser args(argc, argv);
    BenchFlags flags{
        sim::Observability(args.get_or("trace-out", ""),
                           args.get_or("trace-level", "decision"),
                           args.get_bool_or("profile", false),
                           args.get_or("chrome-trace", "")),
        {.every = args.get_count_or("checkpoint-every", 0),
         .path_prefix = args.get_or("checkpoint-prefix", ""),
         .resume_prefix = args.get_or("resume-prefix", "")}};
    if (flags.checkpoint.every > 0 && flags.checkpoint.path_prefix.empty()) {
      flags.checkpoint.path_prefix = csv_path("ckpt");
    }
    if (own) own(args);
    return flags;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(1);
  }
}

/// The checkpoint file `scheme` uses under `prefix` (see CheckpointFlags).
inline std::string scheme_checkpoint_path(const std::string& prefix,
                                          sim::Scheme scheme) {
  return prefix + "_" + sim::scheme_name(scheme) + ".ckpt";
}

/// Runs one scheme of the evaluation setup and logs progress.
/// `instruments` (optional) attaches the bench's observability sinks;
/// `checkpoint` (optional) enables per-scheme snapshot/resume.
inline sim::ExperimentResult run_scheme(sim::ExperimentConfig config,
                                        sim::Scheme scheme,
                                        const obs::Instruments& instruments = {},
                                        const CheckpointFlags& checkpoint = {}) {
  config.scheme = scheme;
  config.trainer.obs = instruments;
  if (checkpoint.every > 0 && scheme != sim::Scheme::kSl) {
    config.trainer.checkpoint_every = checkpoint.every;
    config.trainer.checkpoint_path =
        scheme_checkpoint_path(checkpoint.path_prefix, scheme);
  }
  if (!checkpoint.resume_prefix.empty() && scheme != sim::Scheme::kSl) {
    const std::string resume =
        scheme_checkpoint_path(checkpoint.resume_prefix, scheme);
    if (std::filesystem::exists(resume)) config.trainer.resume_from = resume;
  }
  std::printf("  running %-14s ...", sim::scheme_name(scheme).c_str());
  std::fflush(stdout);
  sim::ExperimentResult result = sim::run_experiment(config);
  std::printf(" best=%.2f%%  delay=%s  energy=%s\n",
              result.history.best_accuracy() * 100.0,
              sim::format_minutes(result.history.total_delay_s()).c_str(),
              sim::format_joules(result.history.total_energy_j()).c_str());
  return result;
}

}  // namespace helcfl::bench
