// The sync-equivalence contract of the async engine (DESIGN.md §16,
// docs/ASYNC.md): with --mode=sync, fl::AsyncTrainer must reproduce
// fl::FederatedTrainer *bitwise* — final weights, every RoundRecord field,
// the metrics CSV bytes, and the full JSONL trace — across strategies,
// fault levels, and thread counts.  Sync mode runs the same barrier code
// as FederatedTrainer (fl::stages::run_barrier), so this harness guards
// against the two paths ever forking again.
//
// The async mode carries the repo's determinism contract instead: a run is
// bitwise reproducible and invariant under --threads, because all event
// ordering flows from the (time, seq) total order, per-client RNG forks
// key on dispatch id, and fault draws key on (dispatch, user).
//
// Default depth covers three structurally distinct strategies; set
// HELCFL_DIFF_DEEP=1 (the `slow` ctest label) for the full
// strategy x faults x threads matrix.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fl/async_trainer.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "resume_fixtures.h"
#include "util/rng.h"

namespace helcfl::testing {
namespace {

bool deep_mode() { return std::getenv("HELCFL_DIFF_DEEP") != nullptr; }

/// Strategy coverage: the shallow set spans the three structurally
/// different selection families (utility-decay, uniform-random with RNG
/// state, loss-feedback); deep mode sweeps the full resume matrix.
std::vector<std::string> differential_strategies() {
  if (deep_mode()) return resume_strategies();
  return {"HELCFL", "ClassicFL", "Oort"};
}

const ResumeWorld& shared_world() {
  static const ResumeWorld world;
  return world;
}

/// Per-process scratch: the shallow and HELCFL_DIFF_DEEP ctest entries run
/// this binary concurrently, so a shared /tmp name would race remove_all.
std::filesystem::path scratch_dir(const std::string& name) {
  return resume_tmp_dir(name + "_" + std::to_string(::getpid()));
}

/// The full bitwise identity: weights, history fields, CSV bytes, and the
/// *raw* trace strings (both engines emit the same events with the same
/// seqs in sync mode — nothing to canonicalize away).
void expect_bitwise_identical(const std::string& label, const ResumeRun& golden,
                              const ResumeRun& candidate) {
  SCOPED_TRACE(label);
  EXPECT_FALSE(golden.final_weights.empty());
  EXPECT_EQ(golden.final_weights, candidate.final_weights);
  expect_history_identical(golden.history, candidate.history);
  const auto dir = scratch_dir("async_differential");
  EXPECT_EQ(history_csv_bytes(dir, "golden", golden.history),
            history_csv_bytes(dir, "candidate", candidate.history));
  EXPECT_FALSE(golden.trace.empty());
  EXPECT_EQ(golden.trace, candidate.trace);
}

/// Cross-thread variant: --threads is configuration, not state, but the
/// run_start preamble records it, so the trace comparison canonicalizes
/// (drops run_start; every simulation event must still match byte-for-byte).
void expect_bitwise_identical_across_threads(const std::string& label,
                                             const ResumeRun& a, const ResumeRun& b) {
  SCOPED_TRACE(label);
  EXPECT_FALSE(a.final_weights.empty());
  EXPECT_EQ(a.final_weights, b.final_weights);
  expect_history_identical(a.history, b.history);
  const auto dir = scratch_dir("async_differential_threads");
  EXPECT_EQ(history_csv_bytes(dir, "a", a.history),
            history_csv_bytes(dir, "b", b.history));
  const std::vector<std::string> canon = canonical_trace(a.trace, 0);
  EXPECT_FALSE(canon.empty());
  EXPECT_EQ(canon, canonical_trace(b.trace, 0));
}

TEST(AsyncDifferential, SyncModeReproducesFederatedTrainerBitwise) {
  const ResumeWorld& world = shared_world();
  const fl::AsyncOptions sync_engine;  // mode = kSync
  for (const std::string& strategy : differential_strategies()) {
    for (const bool faults : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const fl::TrainerOptions options = resume_options(faults, threads);
        const ResumeRun golden = run_resume_case(world, strategy, options);
        const ResumeRun mirrored = run_async_case(world, strategy, options, sync_engine);
        expect_bitwise_identical(strategy + (faults ? "/faults" : "/clean") +
                                     "/threads=" + std::to_string(threads),
                                 golden, mirrored);
      }
    }
  }
}

TEST(AsyncDifferential, SyncModeMatchesUnderStragglerCutoffAndQuorum) {
  // The cutoff/quorum paths reorder nothing but exercise the drop logic the
  // event loop had to reproduce (partial TDMA billing, wasted energy).
  const ResumeWorld& world = shared_world();
  fl::TrainerOptions options = resume_options(true, 2);
  options.straggler_cutoff_s = 600.0;
  options.min_clients = 2;
  const ResumeRun golden = run_resume_case(world, "HELCFL", options);
  const ResumeRun mirrored =
      run_async_case(world, "HELCFL", options, fl::AsyncOptions{});
  expect_bitwise_identical("HELCFL/cutoff", golden, mirrored);
}

fl::AsyncOptions fedbuff_engine() {
  fl::AsyncOptions async;
  async.mode = fl::AsyncOptions::Mode::kAsync;
  async.buffer_k = 3;
  async.staleness_beta = 0.5;
  async.staleness_bound = 4;
  return async;
}

TEST(AsyncDifferential, AsyncModeIsBitwiseReproducible) {
  const ResumeWorld& world = shared_world();
  for (const std::string& strategy : differential_strategies()) {
    for (const bool faults : {false, true}) {
      const fl::TrainerOptions options = resume_options(faults, 1);
      const ResumeRun first = run_async_case(world, strategy, options, fedbuff_engine());
      const ResumeRun second = run_async_case(world, strategy, options, fedbuff_engine());
      expect_bitwise_identical(strategy + (faults ? "/faults" : "/clean"), first,
                               second);
      // The async run really aggregated (non-vacuous reproduction).
      EXPECT_FALSE(first.history.rounds().empty());
    }
  }
}

TEST(AsyncDifferential, AsyncModeIsThreadInvariant) {
  // Worker threads only parallelize local training; commit order, RNG
  // forks, and event times are fixed by dispatch order, so --threads must
  // not move a single byte.
  const ResumeWorld& world = shared_world();
  for (const bool faults : {false, true}) {
    const ResumeRun threads1 =
        run_async_case(world, "HELCFL", resume_options(faults, 1), fedbuff_engine());
    const ResumeRun threads4 =
        run_async_case(world, "HELCFL", resume_options(faults, 4), fedbuff_engine());
    expect_bitwise_identical_across_threads(faults ? "faults" : "clean", threads1,
                                            threads4);
  }
  // Batteries: devices drop out of the selectable mask as they deplete.
  const ResumeRun battery1 = run_async_case(
      world, "HELCFL", with_batteries(resume_options(true, 1)), fedbuff_engine());
  const ResumeRun battery4 = run_async_case(
      world, "HELCFL", with_batteries(resume_options(true, 4)), fedbuff_engine());
  expect_bitwise_identical_across_threads("batteries", battery1, battery4);
  EXPECT_TRUE(some_device_depleted(battery1.history));
}

TEST(AsyncDifferential, SemiAsyncBufferZeroLocksToFirstCohort) {
  // buffer_k = 0: K becomes the first cohort's size.  Still deterministic
  // and thread-invariant, and it must make progress.
  const ResumeWorld& world = shared_world();
  fl::AsyncOptions async = fedbuff_engine();
  async.buffer_k = 0;
  const ResumeRun threads1 = run_async_case(world, "HELCFL", resume_options(true, 1), async);
  const ResumeRun threads4 = run_async_case(world, "HELCFL", resume_options(true, 4), async);
  expect_bitwise_identical_across_threads("semi-async", threads1, threads4);
  EXPECT_FALSE(threads1.history.rounds().empty());
}

TEST(AsyncDifferential, ZeroBetaDisablesDiscountExactly) {
  // β = 0 makes every discount exactly 1.0; the engine must take the
  // undiscounted FedAvg path bitwise (x * 1.0 / t == x / t in IEEE-754).
  const ResumeWorld& world = shared_world();
  fl::AsyncOptions beta0 = fedbuff_engine();
  beta0.staleness_beta = 0.0;
  const ResumeRun run0 = run_async_case(world, "HELCFL", resume_options(false, 2), beta0);
  const ResumeRun again = run_async_case(world, "HELCFL", resume_options(false, 2), beta0);
  expect_bitwise_identical("beta0", run0, again);
  // And β > 0 genuinely changes the trajectory (the knob is live).
  const ResumeRun discounted =
      run_async_case(world, "HELCFL", resume_options(false, 2), fedbuff_engine());
  EXPECT_NE(run0.final_weights, discounted.final_weights);
}

TEST(AsyncDifferential, AsyncRejectsBufferBelowQuorum) {
  const ResumeWorld& world = shared_world();
  fl::TrainerOptions options = resume_options(false, 1);
  options.min_clients = 4;
  fl::AsyncOptions async = fedbuff_engine();
  async.buffer_k = 2;  // every aggregation would fail its quorum
  EXPECT_THROW(run_async_case(world, "HELCFL", options, async),
               std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::testing
