// Configuration of the golden wire fixtures in tests/data/ (see its
// README.md) and the fresh components test_golden_frames.cpp loads them
// into.  The fixtures were written once, before the record layouts moved
// to util::Save/util::Load field walks; every later build must parse them
// and write the very same bytes back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/helcfl_scheduler.h"
#include "data/partition.h"
#include "fl/async_state.h"
#include "fl/async_trainer.h"
#include "fl/checkpoint.h"
#include "fl/event_queue.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "mec/battery.h"
#include "mec/fading.h"
#include "mec/faults.h"
#include "sched/fedcs.h"
#include "sched/fedl.h"
#include "sched/oort.h"
#include "sched/random_selection.h"
#include "svc/frame.h"
#include "svc/service.h"
#include "util/file_io.h"
#include "util/serial.h"

namespace helcfl::testing::golden {

constexpr std::size_t kUsers = 20;
constexpr std::uint64_t kSeed = 77;
constexpr double kFraction = 0.25;
constexpr double kBatteryJ = 0.05;
constexpr std::size_t kServiceUsers = 16;

inline std::filesystem::path data_dir() {
  return std::filesystem::path(HELCFL_TEST_DATA_DIR);
}

inline std::vector<std::uint8_t> read_fixture(const std::string& name) {
  return util::read_file_bytes((data_dir() / name).string());
}

/// A 2x2x3 synthetic split keeps the logistic model at 130 parameters, so
/// every fixture stays a few KB.
struct World {
  World() {
    data::SyntheticCifarOptions options;
    options.height = 2;
    options.width = 2;
    options.train_samples = 160;
    options.test_samples = 40;
    util::Rng data_rng(kSeed);
    split = data::make_synthetic_cifar(options, data_rng);
    util::Rng partition_rng(kSeed + 1);
    partition = data::iid_partition(split.train.size(), kUsers, partition_rng);
    devices = linear_fleet(kUsers, partition[0].size());
    for (std::size_t i = 0; i < kUsers; ++i) devices[i].num_samples = partition[i].size();
  }

  data::TrainTestSplit split;
  data::Partition partition;
  std::vector<mec::Device> devices;
};

inline mec::FaultOptions fault_options() {
  mec::FaultOptions faults;
  faults.enabled = true;
  faults.crash_rate = 0.3;
  faults.upload_failure_rate = 0.3;
  faults.straggler_rate = 0.3;
  faults.straggler_slowdown = 3.0;
  faults.leave_rate = 0.1;
  faults.rejoin_rate = 0.5;
  return faults;
}

inline mec::FadingOptions fading_options() {
  mec::FadingOptions fading;
  fading.enabled = true;
  fading.rho = 0.5;
  fading.sigma_db = 4.0;
  return fading;
}

/// Crash, straggler, churn, upload-failure and battery faults plus fading.
inline fl::TrainerOptions trainer_options() {
  fl::TrainerOptions options;
  options.max_rounds = 4;
  options.eval_every = 2;
  options.client.learning_rate = 0.1F;
  options.client.local_steps = 2;
  options.client.batch_size = 4;
  options.model_size_bits = 4e6;
  options.num_threads = 1;
  options.seed = kSeed;
  options.faults = fault_options();
  options.max_upload_retries = 1;
  options.retry_backoff_s = 0.05;
  options.battery_capacity_j = kBatteryJ;
  options.fading = fading_options();
  return options;
}

inline fl::AsyncOptions async_options() {
  fl::AsyncOptions async;
  async.mode = fl::AsyncOptions::Mode::kAsync;
  async.buffer_k = 3;
  return async;
}

inline std::unique_ptr<core::HelcflScheduler> make_strategy() {
  return std::make_unique<core::HelcflScheduler>(
      core::HelcflOptions{.fraction = kFraction, .eta = 0.9, .enable_dvfs = true});
}

/// The strategies whose payloads only the strategy_*.bin fixtures hold
/// (the checkpoints carry HELCFL frames): fixture file and fresh instance.
inline const std::vector<std::string>& other_strategies() {
  static const std::vector<std::string> kNames = {"ClassicFL", "FEDL", "FedCS", "Oort"};
  return kNames;
}

inline std::string strategy_fixture(const std::string& name) {
  return "strategy_" + name + ".bin";
}

inline std::unique_ptr<sched::SelectionStrategy> make_other_strategy(const std::string& name) {
  const util::Rng rng(kSeed + 2);
  if (name == "ClassicFL") return std::make_unique<sched::RandomSelection>(kFraction, rng);
  if (name == "FEDL") return std::make_unique<sched::FedlSelection>(kFraction, 0.2, rng);
  if (name == "FedCS") return std::make_unique<sched::FedCsSelection>(400.0, 0.5);
  sched::OortOptions options;
  options.fraction = kFraction;
  return std::make_unique<sched::OortSelection>(options, rng);
}

/// The golden fleet's selection view (no dataset needed).
inline std::vector<sched::UserInfo> golden_users() {
  return sched::build_user_info(linear_fleet(kUsers, 8), paper_channel(), 4e6);
}

/// `rounds` rounds of decide → observe → report_completion with
/// deterministic losses and a failure for every third selected user.
inline void drive(sched::SelectionStrategy& strategy, std::size_t first_round,
                  std::size_t rounds) {
  const std::vector<sched::UserInfo> users = golden_users();
  for (std::size_t round = first_round; round < first_round + rounds; ++round) {
    const sched::Decision decision = strategy.decide(sched::FleetView{users}, round);
    std::vector<double> losses;
    std::vector<std::uint8_t> completed;
    for (const std::size_t user : decision.selected) {
      losses.push_back(2.0 / static_cast<double>(1 + user + round));
      completed.push_back((user + round) % 3 != 0 ? 1 : 0);
    }
    strategy.observe(round, decision, losses);
    strategy.report_completion(round, decision, completed);
  }
}

// Freshly built components the checkpoint frames load into: same
// configuration as the trainer's, untouched cursors.
inline mec::FaultInjector make_injector() {
  return mec::FaultInjector(kUsers, fault_options(), util::Rng(1));
}
inline mec::FadingProcess make_fading() {
  return mec::FadingProcess(kUsers, fading_options(), util::Rng(2));
}
inline mec::BatteryFleet make_batteries() { return mec::BatteryFleet(kUsers, kBatteryJ); }

inline svc::ServiceOptions service_options() {
  svc::ServiceOptions options;
  options.fraction = kFraction;
  options.eta = 0.9;
  options.lease_ticks = 32;
  options.queue_capacity = 8;
  return options;
}

inline svc::SchedulerService make_service() {
  std::vector<std::pair<double, double>> delays;
  for (std::size_t i = 0; i < kServiceUsers; ++i) {
    delays.emplace_back(0.5 + 0.1 * static_cast<double>(i),
                        0.2 + 0.05 * static_cast<double>(i % 5));
  }
  return svc::SchedulerService(users_with_delays(delays), service_options());
}

// The four message fixtures' values.
inline svc::DeviceReport report_message() { return {7, 3, 0.25, 0.125}; }
inline svc::ReportAck ack_message() { return {7, 3}; }
inline svc::DecisionRequest request_message() { return {5, 4}; }
inline svc::DecisionResponse response_message() {
  return {5, 4, true, {1, 4, 9}, {1.0e9, 1.5e9, 2.0e9}};
}

// --- value digests ---------------------------------------------------------
//
// A byte round trip cannot see two same-typed fields swapped in a walk (the
// save side swaps them back).  These digests hash what the parsed values
// *mean* — named record fields, and what freshly loaded components then do
// — and the test pins each to the value the pre-conversion build computed.

class Digest {
 public:
  Digest() { text_.precision(17); }
  template <typename T>
  Digest& operator()(const char* name, const T& value) {
    text_ << name << '=' << value << ';';
    return *this;
  }
  template <typename T>
  Digest& list(const char* name, const std::vector<T>& values) {
    text_ << name << "=[";
    for (const T& v : values) text_ << +v << ',';
    text_ << "];";
    return *this;
  }
  std::uint64_t value() const {
    const std::string text = text_.str();
    return util::fnv1a64({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  }

 private:
  std::ostringstream text_;
};

inline std::uint64_t checkpoint_digest(const fl::Checkpoint& c) {
  Digest d;
  d("seed", c.seed)("n_users", c.n_users)("next_round", c.next_round);
  d("cum_delay_s", c.cum_delay_s)("cum_energy_j", c.cum_energy_j);
  d("cum_wasted_energy_j", c.cum_wasted_energy_j)("best_accuracy", c.best_accuracy);
  d("trace_seq", c.trace_seq).list("global_weights", c.global_weights);
  d.list("model_state", c.model_state);
  for (const std::uint64_t word : c.batch_rng.words) d("rng_word", word);
  d("rng_seed", c.batch_rng.seed)("rng_cached", c.batch_rng.cached_normal);
  d("rng_has_cached", c.batch_rng.has_cached_normal)("strategy_name", c.strategy_name);
  d("strategy_bytes", c.strategy_state.size())("injector_bytes", c.injector_state.size());
  d("fading_bytes", c.fading_state.size())("batteries_enabled", c.batteries_enabled);
  d("battery_bytes", c.battery_state.size())("async_enabled", c.async_enabled);
  d("async_bytes", c.async_state.size());
  for (const fl::RoundRecord& r : c.records) {
    d("round", r.round).list("selected", r.selected)("round_delay_s", r.round_delay_s);
    d("round_energy_j", r.round_energy_j)("cum_delay_s", r.cum_delay_s);
    d("cum_energy_j", r.cum_energy_j)("train_loss", r.train_loss);
    d("evaluated", r.evaluated)("test_loss", r.test_loss);
    d("test_accuracy", r.test_accuracy)("alive_users", r.alive_users);
    d.list("aggregated", r.aggregated)("survivors", r.survivors)("crashed", r.crashed);
    d("upload_failures", r.upload_failures)("dropped_late", r.dropped_late);
    d("retries", r.retries)("quorum_failed", r.quorum_failed);
    d("wasted_energy_j", r.wasted_energy_j)("available_users", r.available_users);
  }
  return d.value();
}

/// Loads `ckpt`'s component frames into fresh components and digests what
/// they then do: churn and fading steps, battery charge, and two HELCFL
/// decisions over the golden fleet.
inline std::uint64_t components_digest(const fl::Checkpoint& ckpt, const World& world) {
  Digest d;
  mec::FaultInjector injector = make_injector();
  util::load_state_exact(injector, ckpt.injector_state, "injector");
  mec::FadingProcess fading = make_fading();
  util::load_state_exact(fading, ckpt.fading_state, "fading");
  mec::BatteryFleet batteries = make_batteries();
  util::load_state_exact(batteries, ckpt.battery_state, "batteries");
  const std::unique_ptr<core::HelcflScheduler> strategy = make_strategy();
  util::load_state_exact(*strategy, ckpt.strategy_state, "strategy");
  for (int step = 0; step < 3; ++step) {
    const std::span<const std::uint8_t> mask = injector.availability();
    d.list("available", std::vector<std::uint8_t>(mask.begin(), mask.end()));
    injector.begin_round();
    for (std::size_t i = 0; i < kUsers; ++i) d("fade", fading.multiplier(i));
    fading.step();
  }
  for (std::size_t i = 0; i < kUsers; ++i) d("charge", batteries.battery(i).remaining_j());
  const std::vector<sched::UserInfo> users =
      sched::build_user_info(world.devices, paper_channel(), 4e6);
  for (std::size_t round = 0; round < 2; ++round) {
    const sched::Decision decision =
        strategy->decide(sched::FleetView{users}, ckpt.next_round + round);
    d.list("selected", decision.selected).list("f_hz", decision.frequencies_hz);
  }
  // Refreshes count the cached delays that differ from the fleet's.
  d("delay_refreshes", strategy->selector().index().delay_refreshes());
  return d.value();
}

/// Every field of a parsed async-engine frame (fl::AsyncState).
template <typename State>
std::uint64_t async_state_digest(const State& s) {
  Digest d;
  d("model_version", s.model_version)("step", s.step)("next_dispatch_id", s.next_dispatch_id);
  d("resolutions", s.resolutions)("effective_k", s.effective_k)("now", s.now);
  d("uplink_free", s.uplink_free)("step_start", s.step_start).list("busy", s.busy);
  d("next_seq", s.queue.next_seq());
  for (const fl::Event& e : s.queue.sorted_events()) {
    d("time_s", e.time_s)("seq", e.seq)("kind", static_cast<int>(e.kind))("user", e.user);
    d("tag", e.tag)("value", e.value);
  }
  const auto dispatch = [&](const auto& a) {
    d("id", a.id)("user", a.user)("version", a.version)("frequency_hz", a.frequency_hz);
    d("dispatch_time_s", a.dispatch_time_s)("compute_end_s", a.compute_end_s);
    d("upload_start_s", a.upload_start_s)("compute_delay_s", a.out.compute_delay_s);
    d("upload_duration_s", a.out.upload_duration_s)("occupancy_s", a.out.occupancy_s);
    d("attempts", a.out.attempts)("upload_ok", a.out.upload_ok)("trained", a.out.trained);
    d("crashed", a.crashed)("crash_fraction", a.crash_fraction)("slowdown", a.slowdown);
    d("failed_attempts", a.failed_attempts)("energy_j", a.out.energy_j);
    d.list("weights", a.out.update.weights)("train_loss", a.out.update.train_loss);
    d("num_samples", a.out.update.num_samples).list("state", a.out.state);
  };
  for (const auto& a : s.in_flight) dispatch(a);
  for (const auto& a : s.buffer) dispatch(a);
  d.list("dispatched_users", s.acc.dispatched_users);
  d.list("dispatched_freqs", s.acc.dispatched_freqs);
  d.list("resolved_users", s.acc.resolved_users).list("resolved_freqs", s.acc.resolved_freqs);
  d.list("resolved_completed", s.acc.resolved_completed)("crashed", s.acc.crashed);
  d("upload_failures", s.acc.upload_failures)("dropped_stale", s.acc.dropped_stale);
  d("retries", s.acc.retries)("step_energy", s.acc.step_energy);
  d("step_wasted", s.acc.step_wasted);
  return d.value();
}

/// Two decisions of a strategy loaded from a strategy_*.bin fixture.
inline std::uint64_t strategy_digest(sched::SelectionStrategy& strategy) {
  const std::vector<sched::UserInfo> users = golden_users();
  Digest d;
  for (std::size_t round = 10; round < 12; ++round) {
    const sched::Decision decision = strategy.decide(sched::FleetView{users}, round);
    d.list("selected", decision.selected).list("f_hz", decision.frequencies_hz);
  }
  return d.value();
}

/// Restores `image` into a fresh service, then digests one poll's answer:
/// the queued reports' acks and the staged request's decision.
inline std::uint64_t service_digest(const std::vector<std::uint8_t>& image) {
  svc::SchedulerService service = make_service();
  service.restore(image);
  Digest d;
  d("queue_depth", service.queue_depth());
  service.poll(4);
  for (const std::vector<std::uint8_t>& frame : service.take_outbox()) d.list("frame", frame);
  return d.value();
}

}  // namespace helcfl::testing::golden
