// The two training workloads, sync-cnn and async-mlp, driven through the
// public sim / data / nn / fl / sched APIs.
//
// Round boundaries come from RoundClock, a forwarding SelectionStrategy
// that stamps the clock when the engine reports a round's completion and
// times each decide() call.  The traced run adds TimedLayer, a forwarding
// nn::Layer around every layer of the model (its clone() wraps each worker
// replica too), and lets RoundClock record the round's phases as spans.
// Neither wrapper changes an input or an output of the call it wraps, so
// the traced run must end with the same weights, bit for bit.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/partition.h"
#include "data/synthetic_cifar.h"
#include "fl/async_trainer.h"
#include "fl/trainer.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "report.h"
#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/fleet.h"
#include "sim/simulation.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace helcfl;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload definitions.

struct TrainSpec {
  const char* name = "";
  sim::ExperimentConfig config;
  /// Held-out accuracy the final model must beat: chance (1 / classes)
  /// plus a margin no untrained or diverged model reaches.
  double accuracy_floor = 0.0;
};

// The paper's Fig. 2 / Table I training path: Q = 100, C = 0.1, eta = 0.9,
// non-IID shards, HELCFL with DVFS, one full-batch GD step per round
// (Eq. 3), 2 client threads and 1 kernel thread.
TrainSpec sync_cnn_spec(std::uint64_t seed) {
  TrainSpec spec;
  spec.name = "sync-cnn";
  sim::ExperimentConfig& c = spec.config;
  c = sim::paper_config();
  c.seed = seed;
  c.noniid = true;
  c.model = nn::ModelKind::kSmallCnn;
  c.scheme = sim::Scheme::kHelcfl;
  c.trainer.max_rounds = 300;
  c.trainer.eval_every = 5;
  c.trainer.num_threads = 2;
  c.trainer.client.local_steps = 1;
  c.trainer.client.batch_size = 0;
  c.trainer.client.momentum = 0.0F;
  spec.accuracy_floor = 0.13;
  return spec;
}

// The event-driven engine in E8's straggler regime: IID MLP, FedBuff with
// K = 3/4 of the cohort, staleness beta = 0.5, no staleness bound, 10 %
// stragglers slowed U(1, 10), 1 client thread.
TrainSpec async_mlp_spec(std::uint64_t seed) {
  TrainSpec spec;
  spec.name = "async-mlp";
  sim::ExperimentConfig& c = spec.config;
  c = sim::paper_config();
  c.seed = seed;
  c.noniid = false;
  c.model = nn::ModelKind::kMlp;
  c.scheme = sim::Scheme::kHelcfl;
  c.trainer.max_rounds = 1000;
  c.trainer.eval_every = 5;
  c.trainer.num_threads = 1;
  // The paper config's 0.05 diverges on some seeds once stale deltas
  // compound (training loss past 1e20); 0.02 converges on every seed.
  c.trainer.client.learning_rate = 0.02F;
  c.trainer.faults.enabled = true;
  c.trainer.faults.straggler_rate = 0.10;
  c.trainer.faults.straggler_slowdown = 10.0;
  c.async.mode = fl::AsyncOptions::Mode::kAsync;
  c.async.buffer_k = 7;
  c.async.staleness_beta = 0.5;
  c.async.staleness_bound = 0;
  spec.accuracy_floor = 0.30;
  return spec;
}

// ---------------------------------------------------------------------------
// Forwarding wrappers.

/// Forwards every call to the wrapped strategy.  Stamps a round boundary
/// whenever the engine reports a round's completion and times decide();
/// with a recorder attached it also records the round as spans:
///   fl.round ─┬─ sched.decide   (the decide() call)
///             ├─ fl.train       (decide() returned → next strategy call)
///             ├─ fl.aggregate   (observe() → report_completion() returned)
///             ├─ fl.eval        (report_completion() returned → next call)
///             └─ fl.start       (run() entered → first decide())
/// The phase open at a moment is the recorder's context, the parent of
/// the nn spans that worker threads record.
class RoundClock final : public sched::SelectionStrategy {
 public:
  RoundClock(std::unique_ptr<sched::SelectionStrategy> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  sched::Decision decide(const sched::FleetView& fleet, std::size_t round) override {
    if (spans_ != nullptr) close_phase();
    const std::int64_t begin_ns = spans_ != nullptr ? spans_->now_ns() : 0;
    const Clock::time_point start = Clock::now();
    sched::Decision decision = inner_->decide(fleet, round);
    const Clock::time_point end = Clock::now();
    decide_seconds_.push_back(seconds_between(start, end));
    if (spans_ != nullptr) {
      const std::int64_t end_ns = spans_->now_ns();
      spans_->record({spans_->next_id(), round_id_, "sched.decide", begin_ns, end_ns,
                      end_ns - begin_ns, 1, 0.0});
      open_phase("fl.train");
    }
    return decision;
  }

  void observe(std::size_t round, const sched::Decision& decision,
               std::span<const double> client_losses) override {
    if (spans_ != nullptr) {
      close_phase();
      open_phase("fl.aggregate");
    }
    inner_->observe(round, decision, client_losses);
  }

  void report_completion(std::size_t round, const sched::Decision& decision,
                         std::span<const std::uint8_t> completed) override {
    if (spans_ != nullptr && std::strcmp(phase_.name, "fl.aggregate") != 0) {
      close_phase();
      open_phase("fl.aggregate");
    }
    inner_->report_completion(round, decision, completed);
    boundaries_.push_back(Clock::now());
    if (spans_ != nullptr) {
      close_phase();
      close_round();
      open_round();
      open_phase("fl.eval");
    }
  }

  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }

  /// Call right before the engine's run(): starts round 0.
  void begin_run() {
    boundaries_.push_back(Clock::now());
    if (spans_ != nullptr) {
      open_round();
      open_phase("fl.start");
    }
  }

  /// Call right after run() returns: the phase open since the last
  /// completion (the final evaluation) is recorded as fl.tail, outside
  /// every round.
  void end_run() {
    if (spans_ == nullptr) return;
    const std::int64_t now = spans_->now_ns();
    spans_->record({phase_.id, 0, "fl.tail", phase_.start_ns, now,
                    now - phase_.start_ns, 1, 0.0});
    spans_->set_context(0);
  }

  /// Wall time of every completed round, in ms.
  std::vector<double> round_ms() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < boundaries_.size(); ++i) {
      out.push_back(seconds_between(boundaries_[i - 1], boundaries_[i]) * 1e3);
    }
    return out;
  }
  const std::vector<double>& decide_seconds() const { return decide_seconds_; }

  void clear() {
    boundaries_.clear();
    decide_seconds_.clear();
  }

 private:
  struct Open {
    std::uint64_t id = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
  };

  void open_round() {
    round_id_ = spans_->next_id();
    round_start_ns_ = spans_->now_ns();
  }
  void close_round() {
    const std::int64_t now = spans_->now_ns();
    spans_->record({round_id_, 0, "fl.round", round_start_ns_, now,
                    now - round_start_ns_, 1, 0.0});
  }
  void open_phase(const char* name) {
    phase_ = {spans_->next_id(), name, spans_->now_ns()};
    spans_->set_context(phase_.id);
  }
  void close_phase() {
    const std::int64_t now = spans_->now_ns();
    spans_->record({phase_.id, round_id_, phase_.name, phase_.start_ns, now,
                    now - phase_.start_ns, 1, 0.0});
  }

  std::unique_ptr<sched::SelectionStrategy> inner_;
  SpanRecorder* spans_;
  std::vector<Clock::time_point> boundaries_;
  std::vector<double> decide_seconds_;
  std::uint64_t round_id_ = 0;
  std::int64_t round_start_ns_ = 0;
  Open phase_;
};

/// Forwards every call to the wrapped layer and records forward/backward
/// as spans under the recorder's context, with the GEMM FLOPs of Conv2D
/// and Dense (2 x weights x output positions forward, twice that backward:
/// the weight and the input gradient).
class TimedLayer final : public nn::Layer {
 public:
  TimedLayer(std::unique_ptr<nn::Layer> inner, SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(spans) {
    if (const auto* conv = dynamic_cast<const nn::Conv2D*>(inner_.get())) {
      forward_name_ = "nn.conv2d.forward";
      backward_name_ = "nn.conv2d.backward";
      weights_ = static_cast<double>(conv->out_channels() * conv->in_channels() *
                                     conv->kernel_size() * conv->kernel_size());
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(inner_.get())) {
      forward_name_ = "nn.dense.forward";
      backward_name_ = "nn.dense.backward";
      weights_ = static_cast<double>(dense->in_features() * dense->out_features());
    }
  }

  tensor::Tensor forward(const tensor::Tensor& input, bool training) override {
    const std::uint64_t parent = spans_.context();
    const std::int64_t start = spans_.now_ns();
    tensor::Tensor out = inner_->forward(input, training);
    const std::int64_t end = spans_.now_ns();
    spans_.record({spans_.next_id(), parent, forward_name_, start, end, end - start, 1,
                   gemm_flops(out.shape())});
    return out;
  }

  tensor::Tensor backward(const tensor::Tensor& grad_output) override {
    const std::uint64_t parent = spans_.context();
    const std::int64_t start = spans_.now_ns();
    tensor::Tensor out = inner_->backward(grad_output);
    const std::int64_t end = spans_.now_ns();
    spans_.record({spans_.next_id(), parent, backward_name_, start, end, end - start,
                   1, 2.0 * gemm_flops(grad_output.shape())});
    return out;
  }

  std::vector<nn::ParamRef> params() override { return inner_->params(); }
  std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<TimedLayer>(inner_->clone(), spans_);
  }
  std::vector<std::span<float>> state_buffers() override {
    return inner_->state_buffers();
  }
  void mark_weights_dirty() override { inner_->mark_weights_dirty(); }
  std::string name() const override { return inner_->name(); }

 private:
  double gemm_flops(const tensor::Shape& out) const {
    if (weights_ == 0.0 || out.rank() < 2 || out[1] == 0) return 0.0;
    return 2.0 * weights_ * static_cast<double>(out.num_elements() / out[1]);
  }

  std::unique_ptr<nn::Layer> inner_;
  SpanRecorder& spans_;
  const char* forward_name_ = "nn.other.forward";
  const char* backward_name_ = "nn.other.backward";
  double weights_ = 0.0;  ///< GEMM weight count; 0 = no GEMM in this layer
};

// ---------------------------------------------------------------------------
// Setup and one episode.

// Sub-stream ids off the master seed, as sim::run_experiment uses them, so
// a seed trains the same trajectory as `helcfl_cli --seed`.
constexpr std::uint64_t kDatasetStream = 1;
constexpr std::uint64_t kPartitionStream = 2;
constexpr std::uint64_t kFleetStream = 3;
constexpr std::uint64_t kModelStream = 4;
constexpr std::uint64_t kTrainingStream = 6;

/// Everything the engine borrows, built from the spec: dataset, partition,
/// fleet, model, strategy, and the trainer itself.
class TrainSetup {
 public:
  TrainSetup(const TrainSpec& spec, SpanRecorder* spans)
      : config_(spec.config),
        master_(config_.seed),
        split_([&] {
          util::Rng rng = master_.fork(kDatasetStream);
          return data::make_synthetic_cifar(config_.dataset, rng);
        }()),
        partition_([&] {
          util::Rng rng = master_.fork(kPartitionStream);
          return config_.noniid
                     ? data::shard_noniid_partition(split_.train.labels(),
                                                    config_.n_users,
                                                    config_.shards_per_user, rng)
                     : data::iid_partition(split_.train.size(), config_.n_users, rng);
        }()),
        devices_([&] {
          std::vector<std::size_t> samples;
          for (const auto& slice : partition_) samples.push_back(slice.size());
          util::Rng rng = master_.fork(kFleetStream);
          return sim::make_fleet(config_, samples, rng);
        }()),
        channel_(sim::make_channel(config_)) {
    util::Rng model_rng = master_.fork(kModelStream);
    std::unique_ptr<nn::Sequential> plain = nn::make_model(
        config_.model, split_.train.spec(), config_.dataset.num_classes, model_rng);
    if (spans != nullptr) {
      model_ = std::make_unique<nn::Sequential>();
      for (std::size_t i = 0; i < plain->layer_count(); ++i) {
        model_->add(std::make_unique<TimedLayer>(plain->layer(i).clone(), *spans));
      }
    } else {
      model_ = std::move(plain);
    }
    initial_weights_ = nn::extract_parameters(*model_);

    fl::TrainerOptions options = config_.trainer;
    options.seed = master_.fork(kTrainingStream).next_u64();
    const std::vector<sched::UserInfo> users =
        sched::build_user_info(devices_, channel_, options.model_size_bits);
    clock_ = std::make_unique<RoundClock>(sim::make_strategy(config_, {users}), spans);
    if (config_.async.mode == fl::AsyncOptions::Mode::kAsync) {
      async_ = std::make_unique<fl::AsyncTrainer>(*model_, split_.train, split_.test,
                                                  partition_, devices_, channel_,
                                                  *clock_, options, config_.async);
    } else {
      sync_ = std::make_unique<fl::FederatedTrainer>(*model_, split_.train, split_.test,
                                                     partition_, devices_, channel_,
                                                     *clock_, options);
    }
  }

  /// Trains from the initial weights; every call replays the same episode.
  fl::TrainingHistory run_episode() {
    nn::load_parameters(*model_, initial_weights_);
    clock_->begin_run();
    fl::TrainingHistory history = sync_ ? sync_->run() : async_->run();
    clock_->end_run();
    return history;
  }

  /// Client training samples the history's dispatches consumed.
  double samples_trained(const fl::TrainingHistory& history) const {
    const fl::ClientOptions& client = config_.trainer.client;
    double samples = 0.0;
    for (const fl::RoundRecord& record : history.rounds()) {
      for (const std::size_t user : record.selected) {
        const std::size_t local = partition_[user].size();
        const std::size_t batch = client.batch_size == 0
                                      ? local
                                      : std::min(client.batch_size, local);
        samples += static_cast<double>(batch * client.local_steps);
      }
    }
    return samples;
  }

  std::vector<float> weights() { return nn::extract_parameters(*model_); }
  RoundClock& clock() { return *clock_; }

 private:
  sim::ExperimentConfig config_;
  util::Rng master_;
  data::TrainTestSplit split_;
  data::Partition partition_;
  std::vector<mec::Device> devices_;
  mec::Channel channel_;
  std::unique_ptr<nn::Sequential> model_;
  std::vector<float> initial_weights_;
  std::unique_ptr<RoundClock> clock_;
  std::unique_ptr<fl::FederatedTrainer> sync_;
  std::unique_ptr<fl::AsyncTrainer> async_;
};

/// Builds the setup kSetupRepeats times (timing each) and keeps the last.
std::unique_ptr<TrainSetup> timed_setup(const TrainSpec& spec, SpanRecorder* spans,
                                        std::vector<double>& setup_seconds) {
  std::unique_ptr<TrainSetup> setup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    setup = std::make_unique<TrainSetup>(spec, spans);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
  }
  return setup;
}

struct Episode {
  fl::TrainingHistory history;
  std::vector<float> weights;
  double seconds = 0.0;
};

Episode run_timed_episode(TrainSetup& setup) {
  Episode episode;
  const Clock::time_point start = Clock::now();
  episode.history = setup.run_episode();
  episode.seconds = seconds_between(start, Clock::now());
  episode.weights = setup.weights();
  return episode;
}

void check_episode(Report& report, const TrainSpec& spec, const Episode& episode) {
  const fl::TrainingHistory& h = episode.history;
  report.check(h.size() == spec.config.trainer.max_rounds,
               std::string(spec.name) + ": episode ran " + std::to_string(h.size()) +
                   " rounds, expected " +
                   std::to_string(spec.config.trainer.max_rounds));
  report.check(!h.empty() && h.back().evaluated &&
                   h.back().test_accuracy > spec.accuracy_floor,
               std::string(spec.name) + ": final accuracy " +
                   std::to_string(h.empty() ? 0.0 : h.back().test_accuracy) +
                   " not above the floor " + std::to_string(spec.accuracy_floor));
}

/// Same trajectory: identical weights bit for bit, identical simulated
/// delay and energy totals.
void check_same_trajectory(Report& report, const std::string& what, const Episode& a,
                           const Episode& b) {
  const bool same_weights =
      a.weights.size() == b.weights.size() &&
      std::memcmp(a.weights.data(), b.weights.data(),
                  a.weights.size() * sizeof(float)) == 0;
  report.check(same_weights, what + ": final weights differ");
  report.check(a.history.total_delay_s() == b.history.total_delay_s() &&
                   a.history.total_energy_j() == b.history.total_energy_j(),
               what + ": simulated delay/energy totals differ");
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

Report run_training(const TrainSpec& spec, const RunSettings& settings) {
  Report report;
  std::vector<double> setup_seconds;
  std::unique_ptr<TrainSetup> setup = timed_setup(spec, nullptr, setup_seconds);

  std::vector<double> round_ms;
  std::vector<double> decide_ms;
  RateWindow samples;
  std::optional<Episode> first;
  std::size_t episodes = 0;
  const Clock::time_point start = Clock::now();
  while (episodes == 0 || seconds_between(start, Clock::now()) < settings.seconds) {
    setup->clock().clear();
    Episode episode = run_timed_episode(*setup);
    ++episodes;
    const std::vector<double> rounds = setup->clock().round_ms();
    round_ms.insert(round_ms.end(), rounds.begin(), rounds.end());
    for (const double s : setup->clock().decide_seconds()) decide_ms.push_back(s * 1e3);
    samples.add(setup->samples_trained(episode.history), episode.seconds);
    report.attempted += episode.history.size();
    report.failed += episode.history.failed_round_count();
    check_episode(report, spec, episode);
    if (!first) {
      first = std::move(episode);
    } else {
      check_same_trajectory(report, std::string(spec.name) + ": repeated episode",
                            *first, episode);
    }
  }

  report.add("setup_s", quartiles(setup_seconds).median, "s", setup_seconds.size());
  report.add("peak_rss_mb", peak_rss_mib().value_or(0.0), "MB");
  report.add("items_per_s", samples.rate(), "1/s", samples.windows());
  const Percentile p50 = percentile(round_ms, 50.0);
  const Percentile p95 = percentile(round_ms, 95.0);
  const Percentile p99 = percentile(round_ms, 99.0);
  report.add("round_ms_p50", p50.value, "ms", p50.samples);
  report.add("round_ms_p95", p95.value, "ms", p95.samples);
  report.add("round_ms_p99", p99.value, "ms", p99.samples);
  const Percentile d50 = percentile(decide_ms, 50.0);
  const Percentile d99 = percentile(decide_ms, 99.0);
  report.add("decide_ms_p50", d50.value, "ms", d50.samples);
  report.add("decide_ms_p99", d99.value, "ms", d99.samples);
  report.add("final_accuracy", first->history.back().test_accuracy, "share");
  report.add("failed_share",
             static_cast<double>(report.failed) /
                 static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
             "share");
  report.add("episodes", static_cast<double>(episodes), "count");
  return report;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics from the spans.

struct SpanTotals {
  std::size_t rounds = 0;
  double round_ns = 0.0;
  std::map<std::string, double> busy_ns;  ///< by name, inside rounds only
  double gemm_flops = 0.0;
  double nn_ns = 0.0;        ///< every nn span inside a round
  double nn_train_ns = 0.0;  ///< nn spans under an fl.train phase
};

SpanTotals total_spans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  const auto is_round = [&](std::uint64_t id) {
    const auto it = by_id.find(id);
    return it != by_id.end() && std::strcmp(it->second->name, "fl.round") == 0;
  };

  SpanTotals totals;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "fl.round") == 0) {
      ++totals.rounds;
      totals.round_ns += static_cast<double>(s.busy_ns);
      continue;
    }
    if (std::strncmp(s.name, "nn.", 3) == 0) {
      const auto phase = by_id.find(s.parent);
      if (phase == by_id.end() || !is_round(phase->second->parent)) continue;
      totals.busy_ns[s.name] += static_cast<double>(s.busy_ns);
      totals.nn_ns += static_cast<double>(s.busy_ns);
      totals.gemm_flops += s.work;
      if (std::strcmp(phase->second->name, "fl.train") == 0) {
        totals.nn_train_ns += static_cast<double>(s.busy_ns);
      }
    } else if (is_round(s.parent)) {
      totals.busy_ns[s.name] += static_cast<double>(s.busy_ns);
    }
  }
  return totals;
}

struct TracedPair {
  Episode untraced;
  Episode traced;
  SpanTotals totals;
};

TracedPair run_traced_pair(Report& report, const TrainSpec& spec,
                           const RunSettings& settings) {
  TracedPair pair;
  // Overhead compares median rounds: the first episode in a process also
  // pays thread start-up and cold caches, which would swamp a wall ratio.
  double untraced_p50 = 0.0;
  double traced_p50 = 0.0;
  {
    TrainSetup setup(spec, nullptr);
    pair.untraced = run_timed_episode(setup);
    untraced_p50 = percentile(setup.clock().round_ms(), 50.0).value;
  }
  SpanRecorder spans;
  {
    TrainSetup setup(spec, &spans);
    pair.traced = run_timed_episode(setup);
    traced_p50 = percentile(setup.clock().round_ms(), 50.0).value;
  }
  report.attempted += pair.untraced.history.size() + pair.traced.history.size();
  report.failed += pair.untraced.history.failed_round_count() +
                   pair.traced.history.failed_round_count();
  check_episode(report, spec, pair.untraced);
  check_episode(report, spec, pair.traced);
  check_same_trajectory(report, std::string(spec.name) + ": traced vs untraced",
                        pair.untraced, pair.traced);

  const std::vector<Span> all = spans.collect();
  pair.totals = total_spans(all);
  if (!settings.out_dir.empty()) {
    spans.write_jsonl(settings.out_dir + "/spans-" + spec.name + ".jsonl");
  }
  report.add(std::string("trace.overhead_share.") + spec.name,
             traced_p50 / untraced_p50 - 1.0, "share");
  return pair;
}

double per_round_ms(const SpanTotals& t, double ns) {
  return t.rounds > 0 ? ns / 1e6 / static_cast<double>(t.rounds) : 0.0;
}

double busy(const SpanTotals& t, const char* name) {
  const auto it = t.busy_ns.find(name);
  return it == t.busy_ns.end() ? 0.0 : it->second;
}

}  // namespace

Report run_sync_cnn(const RunSettings& settings) {
  return run_training(sync_cnn_spec(settings.seed), settings);
}

Report run_async_mlp(const RunSettings& settings) {
  return run_training(async_mlp_spec(settings.seed), settings);
}

Report trace_sync_cnn(const RunSettings& settings) {
  const TrainSpec spec = sync_cnn_spec(settings.seed);
  Report report;
  const TracedPair pair = run_traced_pair(report, spec, settings);
  const SpanTotals& t = pair.totals;
  const double decide = busy(t, "sched.decide");
  const double train = busy(t, "fl.train");
  const double eval = busy(t, "fl.eval");
  report.add("sched.decide_ms", per_round_ms(t, decide), "ms", t.rounds);
  report.add("fl.train_ms_per_round", per_round_ms(t, train), "ms", t.rounds);
  report.add("fl.eval_ms_per_round", per_round_ms(t, eval), "ms", t.rounds);
  const double coverage = t.round_ns > 0.0 ? (decide + train + eval) / t.round_ns : 0.0;
  report.add("fl.round_coverage_share", coverage, "share");
  report.check(coverage >= 0.95, "sync-cnn: decide + train + eval cover only " +
                                     std::to_string(coverage) + " of round wall time");
  report.add("nn.conv2d.forward_ms", per_round_ms(t, busy(t, "nn.conv2d.forward")), "ms",
             t.rounds);
  report.add("nn.conv2d.backward_ms", per_round_ms(t, busy(t, "nn.conv2d.backward")),
             "ms", t.rounds);
  report.add("nn.other_ms",
             per_round_ms(t, busy(t, "nn.other.forward") + busy(t, "nn.other.backward")),
             "ms", t.rounds);
  const double gemm_ns = busy(t, "nn.conv2d.forward") + busy(t, "nn.conv2d.backward") +
                         busy(t, "nn.dense.forward") + busy(t, "nn.dense.backward");
  report.add("tensor.gemm_gflop_per_round",
             t.rounds > 0 ? t.gemm_flops / 1e9 / static_cast<double>(t.rounds) : 0.0,
             "count");
  report.add("tensor.gemm_gflops", gemm_ns > 0.0 ? t.gemm_flops / gemm_ns : 0.0,
             "GFLOP/s");
  const double workers = static_cast<double>(spec.config.trainer.num_threads);
  report.add("util.pool_busy_share",
             train > 0.0 ? t.nn_train_ns / (workers * train) : 0.0, "share");
  return report;
}

Report trace_async_mlp(const RunSettings& settings) {
  const TrainSpec spec = async_mlp_spec(settings.seed);
  Report report;
  const TracedPair pair = run_traced_pair(report, spec, settings);
  const SpanTotals& t = pair.totals;
  report.add("nn.dense.forward_ms", per_round_ms(t, busy(t, "nn.dense.forward")), "ms",
             t.rounds);
  report.add("nn.dense.backward_ms", per_round_ms(t, busy(t, "nn.dense.backward")), "ms",
             t.rounds);
  report.add("fl.engine_ms_per_round",
             per_round_ms(t, t.round_ns - t.nn_ns - busy(t, "sched.decide")), "ms",
             t.rounds);
  std::size_t dispatched = 0;
  std::size_t aggregated = 0;
  for (const fl::RoundRecord& record : pair.traced.history.rounds()) {
    dispatched += record.selected.size();
    aggregated += record.aggregated.size();
  }
  report.add("fl.clients_dispatched", static_cast<double>(dispatched), "count");
  report.add("fl.clients_aggregated", static_cast<double>(aggregated), "count");
  report.add("fl.useful_share",
             dispatched > 0 ? static_cast<double>(aggregated) /
                                  static_cast<double>(dispatched)
                            : 0.0,
             "share");
  return report;
}

}  // namespace perfbench
