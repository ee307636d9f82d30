// General-purpose experiment driver: every knob of ExperimentConfig on the
// command line, summary on stdout, optional per-round CSV.
//
//   helcfl_cli [--scheme=helcfl|helcfl_nodvfs|classic|fedcs|fedl|sl|oort]
//              [--setting=iid|noniid] [--rounds=N] [--users=N] [--seed=N]
//              [--fraction=C] [--eta=E] [--model=mlp|logistic|small_cnn|mini_squeezenet]
//              [--lr=F] [--local-steps=N] [--batch-size=N]
//              [--deadline-min=F] [--target-acc=F]
//              [--battery-j=F] [--fading-sigma-db=F]
//              [--compress=none|quantization|sparsification]
//              [--quant-bits=N] [--keep-ratio=F]
//              [--crash-rate=F] [--upload-fail-rate=F]
//              [--straggler-rate=F] [--straggler-slowdown=F]
//              [--churn-leave=F] [--churn-rejoin=F]
//              [--max-retries=N] [--retry-backoff-s=F]
//              [--straggler-cutoff-s=F] [--min-clients=N]
//              [--mode=sync|async] [--buffer-k=N]
//              [--staleness-beta=F] [--staleness-bound=N]
//              [--threads=N] [--csv=path] [--quiet]
//              [--trace-out=path] [--trace-level=round|decision|debug]
//              [--profile] [--chrome-trace=path]
//              [--checkpoint-every=N] [--checkpoint-path=path]
//              [--resume-from=path]
//
// Each flag may be given once: a repeated one is an error (exit code 1), as
// is a negative count (--rounds=-1, --buffer-k=-3, ...).
//
// --threads=0 (the default) uses every hardware thread; --threads=1 forces
// the sequential reference path.  Results are bitwise identical either way
// (the parallel engine's determinism guarantee, DESIGN.md §7) — including
// with faults enabled, whose draws are forked per (round, user).
//
// Observability (docs/OBSERVABILITY.md): --trace-out writes one JSON event
// per line (selection decisions, DVFS assignments, TDMA spans, faults,
// round summaries) at --trace-level (default "decision"); --profile prints
// end-of-run phase-timing and counter tables; --chrome-trace writes the
// phase spans as a chrome://tracing JSON.  Tracing never perturbs the run:
// the model trajectory is bitwise identical with or without these flags.
//
// Round engine (docs/ASYNC.md): --mode=async replaces the round barrier
// with event-driven FedBuff aggregation — the server integrates the first
// --buffer-k arrivals (0 = the first cohort's size), each discounted by
// 1/(1+staleness)^beta (--staleness-beta), dropping arrivals staler than
// --staleness-bound server steps (0 = keep every arrival).  --mode=sync
// (the default) is bitwise identical to the classic barrier engine.
//
// Checkpoint/resume (docs/CHECKPOINT.md): --checkpoint-every=N saves a
// snapshot every N completed rounds to --checkpoint-path (default
// "helcfl.ckpt"; "{round}" in the path expands to the completed-round
// count).  --resume-from continues an interrupted run; the resumed
// trajectory is bitwise identical to one that never stopped.
//
// Two-process scheduler sessions (docs/SERVICE.md): the `serve` and
// `connect` subcommands put the FLCC scheduler service behind a real
// socket so two processes on one machine (or LAN) run a live session:
//
//   helcfl_cli serve   [--listen=tcp:127.0.0.1:7000 | --listen=unix:/path]
//                      [--users=N] [--seed=N] [--fraction=C] [--eta=E]
//                      [--lease-ticks=N] [--max-decisions=N]
//                      [--snapshot-every=N] [--snapshot-path=path]
//   helcfl_cli connect [--connect=tcp:127.0.0.1:7000 | --connect=unix:/path]
//                      [--users=N] [--seed=N] [--rounds=N]
//
// The fleet is derived deterministically from (--users, --seed), so a
// connect with the same values as the serve side impersonates exactly the
// devices the service was constructed for.  `serve` runs until SIGINT or
// --max-decisions; `connect` drives N report-then-decide rounds as every
// device plus the controller and prints each decision.
//
// Examples:
//   helcfl_cli --scheme=helcfl --setting=noniid --rounds=300 --csv=run.csv
//   helcfl_cli --scheme=classic --battery-j=20 --rounds=2000
//   helcfl_cli serve --listen=unix:/tmp/helcfl.sock --users=32 &
//   helcfl_cli connect --connect=unix:/tmp/helcfl.sock --users=32 --rounds=5
#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <optional>
#include <thread>

#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "sim/report.h"
#include "sim/simulation.h"
#include "svc/client.h"
#include "svc/listener.h"
#include "svc/service.h"
#include "svc/transport.h"
#include "util/args.h"
#include "util/log.h"
#include "util/rng.h"

using namespace helcfl;

namespace {

std::atomic<bool> g_interrupted{false};
void handle_sigint(int) { g_interrupted.store(true); }

/// Both sides of a session derive the fleet from (--users, --seed) alone,
/// so the connect side impersonates exactly the devices the serve side's
/// service was constructed for.
std::vector<sched::UserInfo> session_fleet(std::size_t users,
                                           std::uint64_t seed) {
  sim::ExperimentConfig config = sim::paper_config();
  config.n_users = users;
  util::Rng rng(seed);
  const std::vector<std::size_t> samples(users, 40);
  return sched::build_user_info(sim::make_fleet(config, samples, rng),
                                sim::make_channel(config), 4e6);
}

void warn_unused(const util::ArgParser& args) {
  for (const auto& name : args.unused()) {
    std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());
  }
}

int run_serve(const util::ArgParser& args) {
  const auto users = args.get_count_or("users", 64);
  const auto seed = args.get_count_or("seed", 7);
  svc::ServiceOptions options;
  options.fraction = args.get_double_or("fraction", 0.25);
  options.eta = args.get_double_or("eta", 0.9);
  // Ticks are milliseconds of server uptime (ServerOptions default).
  options.lease_ticks = args.get_count_or("lease-ticks", 10'000);
  options.queue_capacity = args.get_count_or("queue-capacity", 4 * users);
  options.snapshot_every = args.get_count_or("snapshot-every", 0);
  options.snapshot_path = args.get_or("snapshot-path", "");
  const std::uint64_t max_decisions = args.get_count_or("max-decisions", 0);
  const svc::Endpoint endpoint =
      svc::Endpoint::parse(args.get_or("listen", "tcp:127.0.0.1:7000"));

  svc::SchedulerService service(session_fleet(users, seed), options);
  svc::SocketServer server(service, endpoint, svc::ServerOptions{});
  warn_unused(args);
  server.start();
  std::printf("helcfl_cli serve: %zu devices on %s (C=%.2f, lease %llu ms)\n",
              users, server.endpoint().to_string().c_str(), options.fraction,
              static_cast<unsigned long long>(options.lease_ticks));
  std::signal(SIGINT, handle_sigint);

  while (!g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (max_decisions > 0 &&
        server.stats().decisions_issued >= max_decisions) {
      break;
    }
  }
  server.stop();
  const svc::ServerStats stats = server.stats();
  std::printf("helcfl_cli serve: done — %llu decisions, %llu conns accepted, "
              "%llu ingress frames, %llu shed, %llu rejected, %llu stalled\n",
              static_cast<unsigned long long>(stats.decisions_issued),
              static_cast<unsigned long long>(stats.conns_accepted),
              static_cast<unsigned long long>(stats.ingress_frames),
              static_cast<unsigned long long>(service.stats().reports_shed),
              static_cast<unsigned long long>(stats.frames_rejected),
              static_cast<unsigned long long>(stats.conns_stalled));
  return 0;
}

int run_connect(const util::ArgParser& args) {
  const auto users = args.get_count_or("users", 64);
  const auto seed = args.get_count_or("seed", 7);
  const auto rounds = args.get_count_or("rounds", 10);
  const svc::Endpoint endpoint =
      svc::Endpoint::parse(args.get_or("connect", "tcp:127.0.0.1:7000"));
  warn_unused(args);

  const auto fleet = session_fleet(users, seed);
  svc::RetryOptions retry;
  retry.base_delay_ticks = 64;
  retry.max_delay_ticks = 1024;
  retry.max_attempts = 64;
  svc::ServiceClient client(retry, util::Rng(seed).fork(100));
  std::optional<svc::ClientChannel> channel;
  std::uint64_t tick = 0;

  auto pump = [&] {
    if (!channel.has_value() || !channel->connected()) {
      channel.emplace(endpoint);  // throws if the server is unreachable
    }
    for (const auto& frame : client.poll(tick)) {
      if (!channel->send_frame(frame)) break;  // retry re-sends after reconnect
    }
    std::vector<svc::Frame> inbox;
    channel->poll_frames(inbox, /*timeout_ms=*/1);
    for (const svc::Frame& frame : inbox) {
      client.deliver(svc::encode_frame(frame));
    }
    ++tick;
  };

  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (std::size_t d = 0; d < fleet.size(); ++d) {
      svc::DeviceReport report;
      report.device_id = d;
      report.report_seq = round + 1;
      report.t_cal_max_s = fleet[d].t_cal_max_s;
      report.t_com_s = fleet[d].t_com_s;
      client.send_report(report, tick);
    }
    const std::uint64_t report_deadline = tick + 200'000;
    while (client.pending_reports() > 0 && tick < report_deadline) pump();
    if (client.pending_reports() > 0) {
      std::fprintf(stderr, "error: report barrier stalled at round %llu\n",
                   static_cast<unsigned long long>(round));
      return 1;
    }
    client.request_decision(round, tick);
    const std::uint64_t decide_deadline = tick + 200'000;
    std::optional<svc::DecisionResponse> decision;
    while (!(decision = client.take_decision()).has_value() &&
           tick < decide_deadline) {
      pump();
    }
    if (!decision.has_value()) {
      std::fprintf(stderr, "error: decision stalled at round %llu\n",
                   static_cast<unsigned long long>(round));
      return 1;
    }
    std::printf("round %llu: %zu selected%s —",
                static_cast<unsigned long long>(decision->round),
                decision->selected.size(),
                decision->degraded ? " (degraded)" : "");
    const std::size_t shown = std::min<std::size_t>(decision->selected.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf(" %zu", decision->selected[i]);
    }
    if (shown < decision->selected.size()) std::printf(" ...");
    std::printf("\n");
  }
  std::printf("helcfl_cli connect: %llu rounds complete, %llu retries\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(client.retries()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    if (!args.positional().empty()) {
      const std::string& command = args.positional().front();
      if (command == "serve") return run_serve(args);
      if (command == "connect") return run_connect(args);
      std::fprintf(stderr, "error: unknown subcommand '%s'\n", command.c_str());
      return 1;
    }
    sim::ExperimentConfig config = sim::paper_config();
    config.scheme = sim::parse_scheme(args.get_or("scheme", "helcfl"));
    const std::string setting = args.get_or("setting", "noniid");
    if (setting != "iid" && setting != "noniid") {
      throw std::invalid_argument("--setting must be iid or noniid");
    }
    config.noniid = setting == "noniid";
    config.trainer.max_rounds = args.get_count_or("rounds", 300);
    config.n_users = args.get_count_or("users", 100);
    config.seed = args.get_count_or("seed", 7);
    config.fraction = args.get_double_or("fraction", config.fraction);
    config.eta = args.get_double_or("eta", config.eta);
    config.model = nn::parse_model_kind(args.get_or("model", "mlp"));
    config.trainer.client.learning_rate = static_cast<float>(
        args.get_double_or("lr", config.trainer.client.learning_rate));
    config.trainer.client.local_steps = args.get_count_or(
        "local-steps", config.trainer.client.local_steps);
    config.trainer.client.batch_size = args.get_count_or(
        "batch-size", config.trainer.client.batch_size);
    const double deadline_min = args.get_double_or("deadline-min", 0.0);
    if (deadline_min > 0.0) config.trainer.deadline_s = deadline_min * 60.0;
    config.trainer.target_accuracy = args.get_double_or("target-acc", -1.0);
    config.trainer.battery_capacity_j = args.get_double_or("battery-j", 0.0);
    const double sigma_db = args.get_double_or("fading-sigma-db", 0.0);
    if (sigma_db > 0.0) {
      config.trainer.fading = {.enabled = true, .rho = 0.8, .sigma_db = sigma_db};
    }
    config.trainer.compression.kind =
        nn::parse_compression_kind(args.get_or("compress", "none"));
    // Saturate rather than wrap, so the compressor's 1..16 check sees an
    // out-of-range value as out of range.
    config.trainer.compression.quantization_bits = static_cast<unsigned>(
        std::min<std::uint64_t>(args.get_count_or("quant-bits", 8), UINT_MAX));
    config.trainer.compression.sparsify_keep_ratio =
        args.get_double_or("keep-ratio", 0.1);
    config.trainer.eval_every = args.get_count_or("eval-every", 5);
    // Failure-aware execution (DESIGN.md §8).  Any non-zero fault rate
    // switches the injector on; the robustness policies work regardless.
    config.trainer.faults.crash_rate = args.get_double_or("crash-rate", 0.0);
    config.trainer.faults.upload_failure_rate =
        args.get_double_or("upload-fail-rate", 0.0);
    config.trainer.faults.straggler_rate = args.get_double_or("straggler-rate", 0.0);
    config.trainer.faults.straggler_slowdown =
        args.get_double_or("straggler-slowdown", 4.0);
    config.trainer.faults.leave_rate = args.get_double_or("churn-leave", 0.0);
    config.trainer.faults.rejoin_rate = args.get_double_or("churn-rejoin", 0.25);
    config.trainer.faults.enabled = config.trainer.faults.any_fault_possible();
    config.trainer.max_upload_retries = args.get_count_or("max-retries", 0);
    config.trainer.retry_backoff_s = args.get_double_or("retry-backoff-s", 0.0);
    const double cutoff_s = args.get_double_or("straggler-cutoff-s", 0.0);
    if (cutoff_s > 0.0) config.trainer.straggler_cutoff_s = cutoff_s;
    config.trainer.min_clients = args.get_count_or("min-clients", 1);
    // Round engine (docs/ASYNC.md): --mode=async drops the round barrier
    // for FedBuff-style buffered aggregation.
    config.async.mode = fl::parse_async_mode(args.get_or("mode", "sync"));
    config.async.buffer_k = args.get_count_or("buffer-k", 0);
    config.async.staleness_beta = args.get_double_or("staleness-beta", 0.5);
    config.async.staleness_bound = args.get_count_or("staleness-bound", 0);
    config.trainer.num_threads = args.get_count_or("threads", 0);
    config.trainer.checkpoint_every = args.get_count_or("checkpoint-every", 0);
    config.trainer.checkpoint_path = args.get_or("checkpoint-path", "");
    if (config.trainer.checkpoint_every > 0 && config.trainer.checkpoint_path.empty()) {
      config.trainer.checkpoint_path = "helcfl.ckpt";
    }
    config.trainer.resume_from = args.get_or("resume-from", "");
    const std::string csv_path = args.get_or("csv", "");
    if (args.get_bool_or("quiet", false)) util::set_log_level(util::LogLevel::kWarn);

    sim::Observability observability(
        args.get_or("trace-out", ""), args.get_or("trace-level", "decision"),
        args.get_bool_or("profile", false), args.get_or("chrome-trace", ""));
    config.trainer.obs = observability.instruments();

    for (const auto& name : args.unused()) {
      std::fprintf(stderr, "warning: unknown option --%s\n", name.c_str());
    }

    const sim::ExperimentResult result = sim::run_experiment(config);

    std::printf("scheme          %s\n", result.scheme.c_str());
    std::printf("setting         %s, Q=%zu, C=%.2f, seed=%llu\n",
                config.noniid ? "non-IID" : "IID", config.n_users, config.fraction,
                static_cast<unsigned long long>(config.seed));
    std::printf("rounds run      %zu\n", result.history.size());
    std::printf("best accuracy   %s\n",
                sim::format_percent(result.history.best_accuracy()).c_str());
    std::printf("total delay     %s\n",
                sim::format_minutes(result.history.total_delay_s()).c_str());
    std::printf("total energy    %s\n",
                sim::format_joules(result.history.total_energy_j()).c_str());
    std::printf("fairness        %.3f\n",
                result.history.selection_fairness(config.n_users));
    if (config.trainer.battery_capacity_j > 0.0 && !result.history.empty()) {
      std::printf("fleet alive     %zu / %zu devices at the end\n",
                  result.history.back().alive_users, config.n_users);
    }
    if (config.trainer.faults.enabled) {
      std::printf("failed rounds   %zu / %zu (quorum < %zu survivors)\n",
                  result.history.failed_round_count(), result.history.size(),
                  config.trainer.min_clients);
      std::printf("crashes         %zu   upload failures %zu   dropped late %zu\n",
                  result.history.total_crashes(),
                  result.history.total_upload_failures(),
                  result.history.total_dropped_late());
      std::printf("retries         %zu\n", result.history.total_retries());
      std::printf("wasted energy   %s of %s\n",
                  sim::format_joules(result.history.total_wasted_energy_j()).c_str(),
                  sim::format_joules(result.history.total_energy_j()).c_str());
    }
    for (const double target : {0.5, 0.58, 0.65}) {
      std::printf("time to %2.0f%%     %s\n", target * 100.0,
                  sim::format_minutes_or_x(result.history.time_to_accuracy(target))
                      .c_str());
    }
    if (!csv_path.empty()) {
      sim::write_history_csv(csv_path, result.history);
      std::printf("per-round CSV   %s\n", csv_path.c_str());
    }
    observability.finish();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
