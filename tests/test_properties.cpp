// Property-based sweeps (TEST_P) over randomized inputs: invariants of the
// TDMA scheduler, Algorithm 3, Algorithm 2, FedAvg, and the partitioners
// must hold for every draw.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "core/dvfs.h"
#include "core/greedy_decay_selection.h"
#include "core/helcfl_scheduler.h"
#include "data/partition.h"
#include "mec/battery.h"
#include "nn/compression.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "mec/cost_model.h"
#include "mec/tdma.h"
#include "sched/scheduler.h"
#include "fl_fixtures.h"
#include "resume_fixtures.h"
#include "util/rng.h"

namespace helcfl {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng() const { return util::Rng(GetParam()); }
};

// --- TDMA invariants -------------------------------------------------------

class TdmaProperty : public SeededProperty {};

TEST_P(TdmaProperty, ScheduleInvariants) {
  util::Rng r = rng();
  const std::size_t n = 1 + static_cast<std::size_t>(r.uniform_int(0, 19));
  std::vector<double> compute(n);
  std::vector<double> upload(n);
  for (std::size_t i = 0; i < n; ++i) {
    compute[i] = r.uniform(0.0, 5.0);
    upload[i] = r.uniform(0.0, 2.0);
  }
  const mec::TdmaSchedule s = mec::schedule_uploads(compute, upload);
  ASSERT_EQ(s.slots.size(), n);

  std::set<std::size_t> seen;
  double prev_end = 0.0;
  double sum_slack = 0.0;
  for (const auto& slot : s.slots) {
    // Every user scheduled exactly once.
    EXPECT_TRUE(seen.insert(slot.index).second);
    // Upload cannot start before computing ends or before the link frees.
    EXPECT_GE(slot.upload_start, slot.compute_end - 1e-12);
    EXPECT_GE(slot.upload_start, prev_end - 1e-12);
    // Slack is exactly the wait.
    EXPECT_NEAR(slot.slack_s, slot.upload_start - slot.compute_end, 1e-12);
    EXPECT_GE(slot.slack_s, 0.0);
    // Durations are preserved.
    EXPECT_NEAR(slot.upload_end - slot.upload_start, upload[slot.index], 1e-12);
    prev_end = slot.upload_end;
    sum_slack += slot.slack_s;
  }
  EXPECT_NEAR(s.total_slack_s, sum_slack, 1e-9);
  EXPECT_NEAR(s.round_delay_s, prev_end, 1e-12);

  // Lower bounds: round cannot beat the slowest compute or the sum of
  // uploads after the earliest compute finisher.
  double max_compute = 0.0;
  double sum_upload = 0.0;
  double min_compute = compute[0];
  for (std::size_t i = 0; i < n; ++i) {
    max_compute = std::max(max_compute, compute[i] + upload[i]);
    sum_upload += upload[i];
    min_compute = std::min(min_compute, compute[i]);
  }
  EXPECT_GE(s.round_delay_s, max_compute - 1e-12);
  EXPECT_GE(s.round_delay_s, min_compute + sum_upload - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TdmaProperty, ::testing::Range<std::uint64_t>(1, 26));

// --- Algorithm 3 invariants --------------------------------------------------

class DvfsProperty : public SeededProperty {};

TEST_P(DvfsProperty, DelayPreservedEnergyReducedFrequenciesLegal) {
  util::Rng r = rng();
  const std::size_t n = 2 + static_cast<std::size_t>(r.uniform_int(0, 10));
  std::vector<mec::Device> devices;
  for (std::size_t i = 0; i < n; ++i) {
    devices.push_back(testing::make_device(
        i, r.uniform(0.31, 2.0),
        static_cast<std::size_t>(r.uniform_int(5, 120)),
        std::exp(r.uniform(std::log(3e-8), std::log(3e-7)))));
  }
  const auto users =
      sched::build_user_info(devices, testing::paper_channel(), 4e6);
  std::vector<std::size_t> selected(n);
  for (std::size_t i = 0; i < n; ++i) selected[i] = i;

  const core::FrequencyPlan plan = core::determine_frequencies({users}, selected);
  ASSERT_EQ(plan.assignments.size(), n);

  // (1) Frequencies within DVFS range (constraint 15).
  double dvfs_energy = 0.0;
  double max_energy = 0.0;
  for (const auto& a : plan.assignments) {
    const auto& device = users[a.user].device;
    EXPECT_GE(a.frequency_hz, device.f_min_hz - 1e-6);
    EXPECT_LE(a.frequency_hz, device.f_max_hz + 1e-6);
    dvfs_energy += mec::compute_energy_j(device, a.frequency_hz);
    max_energy += mec::compute_energy_j(device, device.f_max_hz);
  }
  // (2) Never more energy than running everyone at f_max.
  EXPECT_LE(dvfs_energy, max_energy + 1e-12);

  // (3) Round delay identical to the all-max TDMA schedule.
  std::vector<double> compute_max;
  std::vector<double> upload;
  for (const auto i : selected) {
    compute_max.push_back(users[i].t_cal_max_s);
    upload.push_back(users[i].t_com_s);
  }
  const double baseline = mec::schedule_uploads(compute_max, upload).round_delay_s;
  EXPECT_NEAR(plan.round_delay_s, baseline, 1e-6);

  // (4) The plan's own timeline is consistent: uploads serialized.
  for (std::size_t k = 1; k < plan.assignments.size(); ++k) {
    EXPECT_GE(plan.assignments[k].upload_start_s,
              plan.assignments[k - 1].upload_end_s - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DvfsProperty, ::testing::Range<std::uint64_t>(1, 26));

// --- Algorithm 2 invariants --------------------------------------------------

class GreedyDecayProperty : public SeededProperty {};

TEST_P(GreedyDecayProperty, SelectionInvariants) {
  util::Rng r = rng();
  const std::size_t q = 5 + static_cast<std::size_t>(r.uniform_int(0, 45));
  std::vector<std::pair<double, double>> delays;
  for (std::size_t i = 0; i < q; ++i) {
    delays.push_back({r.uniform(0.1, 10.0), r.uniform(0.1, 3.0)});
  }
  const auto users = testing::users_with_delays(delays);
  const double fraction = r.uniform(0.05, 0.5);
  const double eta = r.uniform(0.5, 0.95);
  core::GreedyDecaySelector selector(fraction, eta);

  const std::size_t expected_n = sched::selection_count(q, fraction);
  std::vector<std::size_t> total_counts(q, 0);
  for (std::size_t round = 0; round < 60; ++round) {
    const auto selected = selector.select({users});
    // Always exactly N distinct users.
    EXPECT_EQ(selected.size(), expected_n);
    const std::set<std::size_t> unique(selected.begin(), selected.end());
    EXPECT_EQ(unique.size(), expected_n);
    for (const auto i : selected) {
      EXPECT_LT(i, q);
      ++total_counts[i];
    }
  }
  // Counters equal observed selections.
  const auto counters = selector.appearance_counts();
  for (std::size_t i = 0; i < q; ++i) EXPECT_EQ(counters[i], total_counts[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyDecayProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- FedAvg properties -------------------------------------------------------

class FedAvgProperty : public SeededProperty {};

TEST_P(FedAvgProperty, AverageIsWithinComponentwiseHull) {
  util::Rng r = rng();
  const std::size_t dim = 1 + static_cast<std::size_t>(r.uniform_int(0, 30));
  const std::size_t k = 1 + static_cast<std::size_t>(r.uniform_int(0, 7));
  std::vector<std::vector<float>> weights(k, std::vector<float>(dim));
  std::vector<fl::WeightedModel> uploads;
  std::vector<std::size_t> counts(k);
  for (std::size_t j = 0; j < k; ++j) {
    for (auto& w : weights[j]) w = static_cast<float>(r.normal());
    counts[j] = 1 + static_cast<std::size_t>(r.uniform_int(0, 99));
  }
  for (std::size_t j = 0; j < k; ++j) uploads.push_back({weights[j], counts[j]});

  const std::vector<float> avg = fl::fedavg(uploads);
  ASSERT_EQ(avg.size(), dim);
  for (std::size_t i = 0; i < dim; ++i) {
    float lo = weights[0][i];
    float hi = weights[0][i];
    for (std::size_t j = 1; j < k; ++j) {
      lo = std::min(lo, weights[j][i]);
      hi = std::max(hi, weights[j][i]);
    }
    EXPECT_GE(avg[i], lo - 1e-5F);
    EXPECT_LE(avg[i], hi + 1e-5F);
  }
}

TEST_P(FedAvgProperty, IdenticalUploadsAreFixedPoint) {
  util::Rng r = rng();
  const std::size_t dim = 1 + static_cast<std::size_t>(r.uniform_int(0, 20));
  std::vector<float> w(dim);
  for (auto& v : w) v = static_cast<float>(r.normal());
  std::vector<fl::WeightedModel> uploads = {{w, 3}, {w, 17}, {w, 1}};
  const std::vector<float> avg = fl::fedavg(uploads);
  for (std::size_t i = 0; i < dim; ++i) EXPECT_NEAR(avg[i], w[i], 1e-6F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedAvgProperty, ::testing::Range<std::uint64_t>(1, 16));

// --- Staleness-discounted FedAvg (docs/ASYNC.md) -----------------------------

class FedAvgDiscountedProperty : public SeededProperty {};

TEST_P(FedAvgDiscountedProperty, AverageIsWithinComponentwiseHull) {
  // Any positive discounts: still a convex combination per component.
  util::Rng r = rng();
  const std::size_t dim = 1 + static_cast<std::size_t>(r.uniform_int(0, 30));
  const std::size_t k = 1 + static_cast<std::size_t>(r.uniform_int(0, 7));
  std::vector<std::vector<float>> weights(k, std::vector<float>(dim));
  std::vector<fl::WeightedModel> uploads;
  for (std::size_t j = 0; j < k; ++j) {
    for (auto& w : weights[j]) w = static_cast<float>(r.normal());
    uploads.push_back({weights[j],
                       1 + static_cast<std::size_t>(r.uniform_int(0, 99)),
                       r.uniform(0.01, 1.0)});
  }
  const std::vector<float> avg = fl::fedavg(uploads);
  ASSERT_EQ(avg.size(), dim);
  for (std::size_t i = 0; i < dim; ++i) {
    float lo = weights[0][i];
    float hi = weights[0][i];
    for (std::size_t j = 1; j < k; ++j) {
      lo = std::min(lo, weights[j][i]);
      hi = std::max(hi, weights[j][i]);
    }
    EXPECT_GE(avg[i], lo - 1e-5F);
    EXPECT_LE(avg[i], hi + 1e-5F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedAvgDiscountedProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(FedAvgDiscountedValidation, DegenerateBuffersAreRejected) {
  const std::vector<float> w = {1.0F, 2.0F};
  const std::vector<float> short_w = {1.0F};
  {  // Empty buffer.
    EXPECT_THROW(fl::fedavg({}), std::invalid_argument);
  }
  {  // Dimension mismatch.
    const std::vector<fl::WeightedModel> uploads = {{w, 3, 1.0},
                                                    {short_w, 3, 1.0}};
    EXPECT_THROW(fl::fedavg(uploads), std::invalid_argument);
  }
  {  // Non-finite and negative discounts.
    const std::vector<fl::WeightedModel> nan_uploads = {
        {w, 3, std::numeric_limits<double>::quiet_NaN()}};
    EXPECT_THROW(fl::fedavg(nan_uploads), std::invalid_argument);
    const std::vector<fl::WeightedModel> neg_uploads = {{w, 3, -0.5}};
    EXPECT_THROW(fl::fedavg(neg_uploads), std::invalid_argument);
  }
  {  // The division-by-zero guard: every entry discounted or sampled to
     // zero leaves no mass to average.
    const std::vector<fl::WeightedModel> zero_discount = {{w, 3, 0.0},
                                                          {w, 9, 0.0}};
    EXPECT_THROW(fl::fedavg(zero_discount), std::invalid_argument);
    const std::vector<fl::WeightedModel> zero_samples = {{w, 0, 1.0},
                                                         {w, 0, 0.7}};
    EXPECT_THROW(fl::fedavg(zero_samples), std::invalid_argument);
  }
  {  // But any positive mass among zeros is fine (survivor defines it).
    const std::vector<fl::WeightedModel> one_alive = {{w, 3, 0.0},
                                                      {w, 5, 0.25}};
    EXPECT_EQ(fl::fedavg(one_alive), std::vector<float>(w));
  }
}

// --- Zero-survivor rounds ----------------------------------------------------

// A straggler cutoff tighter than every arrival drops the entire cohort:
// every round fails its quorum with zero survivors, report_completion
// receives an all-zero mask, and no aggregation (hence no division by a
// zero total weight) is ever attempted.  The run must complete cleanly
// with the global model untouched.
TEST(ZeroSurvivorRound, CutoffDroppingEveryArrivalCompletesCleanly) {
  const data::TrainTestSplit split = testing::tiny_split(48, 24, 90);
  constexpr std::size_t kUsers = 6;
  util::Rng partition_rng(91);
  const data::Partition partition =
      data::iid_partition(split.train.size(), kUsers, partition_rng);
  std::vector<mec::Device> devices =
      testing::linear_fleet(kUsers, partition[0].size());
  for (std::size_t i = 0; i < kUsers; ++i) {
    devices[i].num_samples = partition[i].size();
  }
  util::Rng model_rng(92);
  const std::unique_ptr<nn::Sequential> model = nn::make_model(
      nn::ModelKind::kLogistic, split.train.spec(), 10, model_rng);
  const std::vector<float> initial = nn::extract_parameters(*model);

  core::HelcflScheduler strategy({.fraction = 0.5, .eta = 0.9});
  fl::TrainerOptions options;
  options.max_rounds = 3;
  options.client.learning_rate = 0.1F;
  options.client.local_steps = 1;
  options.client.batch_size = 4;
  options.model_size_bits = 4e6;
  options.seed = 7;
  options.straggler_cutoff_s = 1e-9;  // tighter than any compute+upload
  options.min_clients = 1;

  fl::FederatedTrainer trainer(*model, split.train, split.test, partition,
                               devices, testing::paper_channel(), strategy,
                               options);
  const fl::TrainingHistory history = trainer.run();

  ASSERT_EQ(history.size(), 3U);
  for (const fl::RoundRecord& record : history.rounds()) {
    EXPECT_FALSE(record.selected.empty());
    EXPECT_EQ(record.survivors, 0U);
    EXPECT_EQ(record.dropped_late, record.selected.size());
    EXPECT_TRUE(record.quorum_failed);
    EXPECT_TRUE(record.aggregated.empty());
    // The cohort's energy was spent for nothing — and accounted as such.
    EXPECT_GT(record.wasted_energy_j, 0.0);
  }
  // No aggregation ever ran: the global model is still the initial one.
  EXPECT_EQ(nn::extract_parameters(*model), initial);
  // The strategy absorbed three all-zero completion masks and still
  // produces a well-formed next decision.
  const auto users =
      sched::build_user_info(devices, testing::paper_channel(), 4e6);
  const sched::Decision next = strategy.decide({users}, 3);
  EXPECT_EQ(next.selected.size(), sched::selection_count(kUsers, 0.5));
}

// Strategy-level contract: an all-zero completion mask must be accepted by
// every stateful strategy without corrupting its later decisions.
TEST(ZeroSurvivorRound, AllZeroCompletionMaskIsAbsorbedByStrategies) {
  const auto users = testing::users_with_delays(
      {{1.0, 0.3}, {2.0, 0.3}, {3.0, 0.3}, {4.0, 0.3}, {5.0, 0.3}, {6.0, 0.3}});
  for (const std::string& name : testing::resume_strategies()) {
    SCOPED_TRACE(name);
    const auto strategy = testing::make_resume_strategy(name);
    for (std::size_t round = 0; round < 4; ++round) {
      const sched::Decision decision = strategy->decide({users}, round);
      ASSERT_FALSE(decision.selected.empty());
      const std::vector<std::uint8_t> none(decision.selected.size(), 0);
      strategy->report_completion(round, decision, none);
    }
    const sched::Decision after = strategy->decide({users}, 4);
    EXPECT_FALSE(after.selected.empty());
    for (const std::size_t user : after.selected) EXPECT_LT(user, users.size());
  }
}

// --- Partition properties ----------------------------------------------------

class PartitionProperty : public SeededProperty {};

TEST_P(PartitionProperty, BothPartitionersAreExactCovers) {
  util::Rng r = rng();
  const std::size_t users = 2 + static_cast<std::size_t>(r.uniform_int(0, 48));
  const std::size_t shards_per_user = 1 + static_cast<std::size_t>(r.uniform_int(0, 4));
  const std::size_t samples =
      users * shards_per_user * (1 + static_cast<std::size_t>(r.uniform_int(0, 20)));

  std::vector<std::int32_t> labels(samples);
  for (auto& l : labels) l = static_cast<std::int32_t>(r.uniform_int(0, 9));

  util::Rng r1 = r.fork(1);
  const data::Partition iid = data::iid_partition(samples, users, r1);
  EXPECT_TRUE(data::is_exact_cover(iid, samples));

  util::Rng r2 = r.fork(2);
  const data::Partition shard =
      data::shard_noniid_partition(labels, users, shards_per_user, r2);
  EXPECT_TRUE(data::is_exact_cover(shard, samples));

  // Non-IID class coverage: each of the 9 label boundaries lies inside at
  // most one shard, so total coverage <= total shards + (classes - 1).
  const auto coverage = data::classes_per_user(shard, labels, 10);
  std::size_t total_coverage = 0;
  for (const auto c : coverage) total_coverage += c;
  EXPECT_LE(total_coverage, users * shards_per_user + 9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Compression properties ---------------------------------------------------

class CompressionProperty : public SeededProperty {};

TEST_P(CompressionProperty, QuantizationInvariants) {
  util::Rng r = rng();
  const std::size_t n = 1 + static_cast<std::size_t>(r.uniform_int(0, 499));
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(r.normal(0.0, 2.0));
  float max_abs = 0.0F;
  for (const float v : w) max_abs = std::max(max_abs, std::abs(v));

  double prev_error = -1.0;
  for (const unsigned bits : {2u, 4u, 8u, 12u}) {
    const nn::CompressedModel c = nn::compress_uniform_quantization(w, bits);
    // Wire size is exact and monotone in bits.
    EXPECT_EQ(c.wire_bits, 32u + static_cast<std::size_t>(bits) * n);
    // Reconstruction stays within the grid and within half a step.
    const float levels = static_cast<float>((1u << (bits - 1)) - 1u);
    const float step = levels > 0.0F ? max_abs / levels : max_abs;
    double error = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(c.reconstructed[i]), max_abs + 1e-5F);
      EXPECT_LE(std::abs(c.reconstructed[i] - w[i]), step / 2.0F + 1e-5F);
      error += std::abs(c.reconstructed[i] - w[i]);
    }
    // Total error is non-increasing in bits.
    if (prev_error >= 0.0) EXPECT_LE(error, prev_error + 1e-6);
    prev_error = error;
  }
}

TEST_P(CompressionProperty, SparsificationInvariants) {
  util::Rng r = rng();
  const std::size_t n = 2 + static_cast<std::size_t>(r.uniform_int(0, 499));
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(r.normal(0.0, 1.0));
  const double keep_ratio = r.uniform(0.01, 1.0);
  const nn::CompressedModel c = nn::compress_topk_sparsification(w, keep_ratio);

  std::size_t kept = 0;
  float min_kept = 1e30F;
  float max_dropped = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    if (c.reconstructed[i] != 0.0F) {
      EXPECT_EQ(c.reconstructed[i], w[i]);  // survivors exact
      ++kept;
      min_kept = std::min(min_kept, std::abs(w[i]));
    } else if (w[i] != 0.0F) {
      max_dropped = std::max(max_dropped, std::abs(w[i]));
    }
  }
  EXPECT_GE(kept, 1u);
  EXPECT_EQ(c.wire_bits, kept * 64);
  // Every kept magnitude >= every dropped magnitude.
  if (kept < n) EXPECT_GE(min_kept, max_dropped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// --- Battery properties --------------------------------------------------------

class BatteryProperty : public SeededProperty {};

TEST_P(BatteryProperty, DrainConservation) {
  util::Rng r = rng();
  const double capacity = r.uniform(0.5, 20.0);
  mec::Battery battery(capacity);
  double total_drained = 0.0;
  while (!battery.depleted()) {
    total_drained += battery.drain(r.uniform(0.0, 2.0));
  }
  // Exactly the capacity was handed out, no more.
  EXPECT_NEAR(total_drained, capacity, 1e-9);
  EXPECT_DOUBLE_EQ(battery.drain(1.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatteryProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- Cost model properties ---------------------------------------------------

class CostProperty : public SeededProperty {};

TEST_P(CostProperty, DelayEnergyMonotoneInFrequency) {
  util::Rng r = rng();
  const auto device = testing::make_device(
      0, r.uniform(0.31, 2.0), static_cast<std::size_t>(r.uniform_int(1, 200)));
  const double f1 = r.uniform(device.f_min_hz, device.f_max_hz);
  const double f2 = r.uniform(device.f_min_hz, device.f_max_hz);
  const double lo = std::min(f1, f2);
  const double hi = std::max(f1, f2);
  if (lo == hi) return;
  EXPECT_GE(mec::compute_delay_s(device, lo), mec::compute_delay_s(device, hi));
  EXPECT_LE(mec::compute_energy_j(device, lo), mec::compute_energy_j(device, hi));
  // Energy-delay product is monotone in f as well: E*T = alpha/2 (piD)^2 f.
  EXPECT_LE(mec::compute_energy_j(device, lo) * mec::compute_delay_s(device, lo),
            mec::compute_energy_j(device, hi) * mec::compute_delay_s(device, hi) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostProperty, ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace helcfl
