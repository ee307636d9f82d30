// Integration tests of failure-aware round execution (DESIGN.md §8):
// bitwise no-op when faults are off, thread-count invariance with faults
// on, quorum aggregation, retry/cutoff policies, completion feedback to
// the schedulers, option validation, and aggregate task-error reporting.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/helcfl_scheduler.h"
#include "fl/async_trainer.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "sched/random_selection.h"

namespace helcfl::fl {
namespace {

class TrainerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = testing::tiny_split(300, 80, 80);
    util::Rng prng(81);
    partition_ = data::iid_partition(split_.train.size(), kUsers, prng);
    devices_ = testing::linear_fleet(kUsers, partition_[0].size());
    for (std::size_t i = 0; i < kUsers; ++i) {
      devices_[i].num_samples = partition_[i].size();
    }
    util::Rng model_rng(82);
    model_ = nn::make_mlp(split_.train.spec(), 12, 10, model_rng);
    init_ = nn::extract_parameters(*model_);
  }

  TrainerOptions base_options() {
    TrainerOptions options;
    options.max_rounds = 12;
    options.eval_every = 6;
    options.client.learning_rate = 0.1F;
    options.client.batch_size = 16;  // exercises the per-client RNG streams
    return options;
  }

  struct RunResult {
    TrainingHistory history;
    std::vector<float> final_weights;
  };

  RunResult run(sched::SelectionStrategy& strategy, const TrainerOptions& options) {
    nn::load_parameters(*model_, init_);
    FederatedTrainer trainer(*model_, split_.train, split_.test, partition_, devices_,
                             testing::paper_channel(), strategy, options);
    RunResult result;
    result.history = trainer.run();
    result.final_weights = nn::extract_parameters(*model_);
    return result;
  }

  static void expect_identical(const RunResult& a, const RunResult& b) {
    EXPECT_EQ(a.final_weights, b.final_weights);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      const RoundRecord& ra = a.history.rounds()[i];
      const RoundRecord& rb = b.history.rounds()[i];
      EXPECT_EQ(ra.selected, rb.selected) << "round " << i;
      EXPECT_EQ(ra.aggregated, rb.aggregated) << "round " << i;
      EXPECT_EQ(ra.round_delay_s, rb.round_delay_s) << "round " << i;
      EXPECT_EQ(ra.round_energy_j, rb.round_energy_j) << "round " << i;
      EXPECT_EQ(ra.train_loss, rb.train_loss) << "round " << i;
      EXPECT_EQ(ra.test_loss, rb.test_loss) << "round " << i;
      EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << "round " << i;
      EXPECT_EQ(ra.crashed, rb.crashed) << "round " << i;
      EXPECT_EQ(ra.upload_failures, rb.upload_failures) << "round " << i;
      EXPECT_EQ(ra.dropped_late, rb.dropped_late) << "round " << i;
      EXPECT_EQ(ra.retries, rb.retries) << "round " << i;
      EXPECT_EQ(ra.quorum_failed, rb.quorum_failed) << "round " << i;
      EXPECT_EQ(ra.wasted_energy_j, rb.wasted_energy_j) << "round " << i;
    }
  }

  static constexpr std::size_t kUsers = 10;
  data::TrainTestSplit split_;
  data::Partition partition_;
  std::vector<mec::Device> devices_;
  std::unique_ptr<nn::Sequential> model_;
  std::vector<float> init_;
};

// --- zero-fault equivalence ------------------------------------------------

TEST_F(TrainerFaultTest, EnabledInjectorWithZeroRatesIsBitwiseNoOp) {
  // The whole fault machinery active but with nothing to inject must leave
  // the trace and final weights bitwise identical to a run with the
  // subsystem disabled (the pre-PR behaviour).
  util::Rng rng1(90);
  sched::RandomSelection s1(0.4, rng1);
  const RunResult plain = run(s1, base_options());

  TrainerOptions armed = base_options();
  armed.faults.enabled = true;  // all rates at their 0.0 defaults
  armed.min_clients = 1;
  armed.max_upload_retries = 3;  // unused without failures
  armed.retry_backoff_s = 2.0;
  util::Rng rng2(90);
  sched::RandomSelection s2(0.4, rng2);
  const RunResult zero_rates = run(s2, armed);

  expect_identical(plain, zero_rates);
  EXPECT_EQ(zero_rates.history.total_crashes(), 0u);
  EXPECT_EQ(zero_rates.history.total_retries(), 0u);
  EXPECT_EQ(zero_rates.history.failed_round_count(), 0u);
  EXPECT_EQ(zero_rates.history.total_wasted_energy_j(), 0.0);
}

TEST_F(TrainerFaultTest, FaultsAreThreadCountInvariant) {
  // Injected faults are drawn per (round, user) on the coordinator, so the
  // bitwise thread-count determinism of DESIGN.md §7 must survive them.
  TrainerOptions options = base_options();
  options.faults.enabled = true;
  options.faults.crash_rate = 0.2;
  options.faults.straggler_rate = 0.3;
  options.faults.upload_failure_rate = 0.2;
  options.max_upload_retries = 2;
  options.retry_backoff_s = 0.5;
  options.min_clients = 1;

  options.num_threads = 1;
  util::Rng rng1(91);
  sched::RandomSelection s1(0.5, rng1);
  const RunResult sequential = run(s1, options);

  options.num_threads = 8;
  util::Rng rng8(91);
  sched::RandomSelection s8(0.5, rng8);
  const RunResult parallel = run(s8, options);

  expect_identical(sequential, parallel);
  // The fault config above must actually bite for this test to mean much.
  EXPECT_GT(sequential.history.total_crashes(), 0u);
}

// --- quorum aggregation ----------------------------------------------------

TEST_F(TrainerFaultTest, QuorumFailedRoundLeavesGlobalModelUnchanged) {
  // Every client crashes every round: no round can meet even a quorum of 1,
  // the global model must never move, and HELCFL's α_q counters must show
  // no appearances because every increment was revoked.
  TrainerOptions options = base_options();
  options.max_rounds = 5;
  options.faults.enabled = true;
  options.faults.crash_rate = 1.0;
  options.min_clients = 1;

  core::HelcflScheduler scheduler({.fraction = 0.3, .eta = 0.9, .enable_dvfs = true});
  const RunResult result = run(scheduler, options);

  EXPECT_EQ(result.final_weights, init_);
  EXPECT_EQ(result.history.size(), 5u);
  EXPECT_EQ(result.history.failed_round_count(), 5u);
  for (const auto& r : result.history.rounds()) {
    EXPECT_TRUE(r.quorum_failed);
    EXPECT_EQ(r.survivors, 0u);
    EXPECT_TRUE(r.aggregated.empty());
    EXPECT_GT(r.crashed, 0u);
    // The whole round's energy was wasted: burned cycles, no progress.
    EXPECT_EQ(r.wasted_energy_j, r.round_energy_j);
    EXPECT_GT(r.wasted_energy_j, 0.0);
  }
  // Crashed clients contributed no data, so their appearance counters were
  // revoked: the selector must look as if nobody ever participated.
  for (const std::size_t count : scheduler.selector().appearance_counts()) {
    EXPECT_EQ(count, 0u);
  }
}

TEST_F(TrainerFaultTest, StrictQuorumFailsRoundsAPartialOneSurvives) {
  TrainerOptions options = base_options();
  options.max_rounds = 8;
  options.faults.enabled = true;
  options.faults.crash_rate = 0.5;

  // Cohort of 5 with half crashing: min_clients = 1 accepts most rounds...
  options.min_clients = 1;
  util::Rng rng1(93);
  sched::RandomSelection s1(0.5, rng1);
  const RunResult lenient = run(s1, options);

  // ...while min_clients = 5 (the full cohort) fails any round with a crash.
  options.min_clients = 5;
  util::Rng rng2(93);
  sched::RandomSelection s2(0.5, rng2);
  const RunResult strict = run(s2, options);

  EXPECT_LT(lenient.history.failed_round_count(),
            strict.history.failed_round_count());
  EXPECT_GT(strict.history.failed_round_count(), 0u);
}

TEST_F(TrainerFaultTest, AggregationCountsNeverExceedSelectionCounts) {
  TrainerOptions options = base_options();
  options.faults.enabled = true;
  options.faults.crash_rate = 0.3;
  options.faults.upload_failure_rate = 0.2;
  options.min_clients = 1;
  util::Rng rng(94);
  sched::RandomSelection strategy(0.5, rng);
  const RunResult result = run(strategy, options);

  const auto selected = result.history.selection_counts(kUsers);
  const auto aggregated = result.history.aggregation_counts(kUsers);
  std::size_t total_selected = 0;
  std::size_t total_aggregated = 0;
  for (std::size_t i = 0; i < kUsers; ++i) {
    EXPECT_LE(aggregated[i], selected[i]) << "user " << i;
    total_selected += selected[i];
    total_aggregated += aggregated[i];
  }
  EXPECT_LT(total_aggregated, total_selected);  // the faults really dropped some
  EXPECT_GT(total_aggregated, 0u);              // but training still progressed
}

// --- retries ---------------------------------------------------------------

TEST_F(TrainerFaultTest, RetriesRecoverUploadsAtADelayCost) {
  TrainerOptions options = base_options();
  options.faults.enabled = true;
  options.faults.upload_failure_rate = 0.5;
  options.min_clients = 1;

  options.max_upload_retries = 0;
  util::Rng rng1(95);
  sched::RandomSelection s1(0.5, rng1);
  const RunResult no_retries = run(s1, options);

  options.max_upload_retries = 3;
  options.retry_backoff_s = 1.0;
  util::Rng rng2(95);
  sched::RandomSelection s2(0.5, rng2);
  const RunResult with_retries = run(s2, options);

  EXPECT_EQ(no_retries.history.total_retries(), 0u);
  EXPECT_GT(with_retries.history.total_retries(), 0u);

  // Retries rescue updates that a single attempt would lose...
  std::size_t lost_without = no_retries.history.total_upload_failures();
  std::size_t lost_with = with_retries.history.total_upload_failures();
  EXPECT_LT(lost_with, lost_without);

  // ...and each extra attempt re-occupies the TDMA uplink, so the recovered
  // updates are paid for in wall-clock delay and transmission energy.
  EXPECT_GT(with_retries.history.total_delay_s(), no_retries.history.total_delay_s());
  EXPECT_GT(with_retries.history.total_energy_j(),
            no_retries.history.total_energy_j());
}

// --- straggler cutoff ------------------------------------------------------

TEST_F(TrainerFaultTest, StragglerCutoffDropsLateUpdatesAndCapsRoundDelay) {
  // The cutoff policy stands alone: no injector needed, the TDMA tail is
  // simply discarded.  Derive a cutoff from a reference run so the test does
  // not hard-code timing constants.
  util::Rng rng1(96);
  sched::RandomSelection s1(0.8, rng1);
  const RunResult reference = run(s1, base_options());
  const double full_round_delay = reference.history.rounds()[0].round_delay_s;
  ASSERT_GT(full_round_delay, 0.0);

  TrainerOptions options = base_options();
  options.straggler_cutoff_s = 0.6 * full_round_delay;
  options.min_clients = 1;
  util::Rng rng2(96);
  sched::RandomSelection s2(0.8, rng2);
  const RunResult cut = run(s2, options);

  EXPECT_GT(cut.history.total_dropped_late(), 0u);
  EXPECT_GT(cut.history.total_wasted_energy_j(), 0.0);
  for (const auto& r : cut.history.rounds()) {
    EXPECT_LE(r.round_delay_s, options.straggler_cutoff_s);
    EXPECT_EQ(r.dropped_late + r.survivors,
              r.selected.size());  // nobody unaccounted for
  }
  EXPECT_LT(cut.history.total_delay_s(), reference.history.total_delay_s());
}

// --- churn -----------------------------------------------------------------

TEST_F(TrainerFaultTest, ChurnShrinksTheSelectableFleetTransiently) {
  TrainerOptions options = base_options();
  options.max_rounds = 30;
  options.faults.enabled = true;
  options.faults.leave_rate = 0.05;
  options.faults.rejoin_rate = 0.5;
  util::Rng rng(97);
  sched::RandomSelection strategy(0.3, rng);
  const RunResult result = run(strategy, options);

  EXPECT_EQ(result.history.size(), 30u);  // churn never terminates training
  bool saw_reduced = false;
  bool saw_full = false;
  for (const auto& r : result.history.rounds()) {
    EXPECT_LE(r.available_users, kUsers);
    if (r.available_users < kUsers) saw_reduced = true;
    if (r.available_users == kUsers) saw_full = true;
  }
  EXPECT_TRUE(saw_reduced);
  EXPECT_TRUE(saw_full);  // rejoin really brings devices back
}

// --- option validation -----------------------------------------------------

TEST_F(TrainerFaultTest, InvalidOptionsAreRejectedAtConstruction) {
  util::Rng rng(98);
  sched::RandomSelection strategy(0.4, rng);
  const auto expect_rejected = [&](TrainerOptions options) {
    EXPECT_THROW(FederatedTrainer(*model_, split_.train, split_.test, partition_,
                                  devices_, testing::paper_channel(), strategy,
                                  options),
                 std::invalid_argument);
  };

  TrainerOptions options = base_options();
  options.eval_every = 0;
  expect_rejected(options);

  options = base_options();
  options.eval_batch = 0;
  expect_rejected(options);

  options = base_options();
  options.deadline_s = -1.0;
  expect_rejected(options);

  options = base_options();
  options.model_size_bits = 0.0;
  expect_rejected(options);

  options = base_options();
  options.min_clients = 0;
  expect_rejected(options);

  options = base_options();
  options.min_clients = kUsers + 1;
  expect_rejected(options);

  options = base_options();
  options.retry_backoff_s = -0.5;
  expect_rejected(options);

  options = base_options();
  options.straggler_cutoff_s = 0.0;
  expect_rejected(options);

  options = base_options();
  options.faults.crash_rate = 1.5;
  expect_rejected(options);

  options = base_options();
  options.faults.leave_rate = 0.2;
  options.faults.rejoin_rate = 0.0;
  expect_rejected(options);
}

// --- aggregate task-error reporting ---------------------------------------

TEST_F(TrainerFaultTest, ParallelTaskErrorsAreAggregatedAcrossClients) {
  // quantization_bits = 0 makes every client's upload compression throw
  // inside its worker task; the engine must join all tasks and report one
  // error naming every failed client, not just the first.  Both engines
  // share the cohort runner, so both must say so.
  TrainerOptions options = base_options();
  options.num_threads = 4;
  options.compression = {.kind = nn::CompressionKind::kQuantization,
                         .quantization_bits = 0};
  AsyncOptions async;
  async.mode = AsyncOptions::Mode::kAsync;
  async.buffer_k = 0;
  for (const bool event_driven : {false, true}) {
    SCOPED_TRACE(event_driven ? "AsyncTrainer (async mode)" : "FederatedTrainer");
    util::Rng rng(99);
    sched::RandomSelection strategy(1.0, rng);  // the whole fleet, every round
    nn::load_parameters(*model_, init_);
    try {
      if (event_driven) {
        AsyncTrainer(*model_, split_.train, split_.test, partition_, devices_,
                     testing::paper_channel(), strategy, options, async)
            .run();
      } else {
        FederatedTrainer(*model_, split_.train, split_.test, partition_, devices_,
                         testing::paper_channel(), strategy, options)
            .run();
      }
      FAIL() << "expected the client tasks to fail";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("10 client task(s) failed"), std::string::npos)
          << message;
      for (std::size_t user = 0; user < kUsers; ++user) {
        EXPECT_NE(message.find("user " + std::to_string(user) + ")"),
                  std::string::npos)
            << "missing user " << user << " in: " << message;
      }
    }
  }
}

}  // namespace
}  // namespace helcfl::fl
