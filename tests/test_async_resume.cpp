// Checkpoint/resume for the async engine (docs/ASYNC.md, docs/CHECKPOINT.md).
//
// An async snapshot is *mid-flight* by construction: it is written at a
// resolution cadence, while other clients are still computing, the event
// queue holds their completions, and the aggregation buffer may be partially
// full.  Resuming such a snapshot must continue bitwise identically to the
// run that never stopped — the v3 async frame captures the queue, the
// global clock, the in-flight outcomes, and the partial buffer exactly.
//
// Also covered: the engine-mode firewall (a sync snapshot cannot feed the
// async engine and vice versa), and the parse-then-commit discipline — a
// truncated or gutted async frame is rejected with the trainer (and its
// model) untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fl/async_trainer.h"
#include "fl/checkpoint.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "resume_fixtures.h"

namespace helcfl::fl {
namespace {

const testing::ResumeWorld& world() {
  static const testing::ResumeWorld kWorld;
  return kWorld;
}

AsyncOptions fedbuff_engine() {
  AsyncOptions async;
  async.mode = AsyncOptions::Mode::kAsync;
  async.buffer_k = 3;
  async.staleness_beta = 0.5;
  async.staleness_bound = 4;
  return async;
}

/// The resolution-cadence snapshot files a run left under `dir`, sorted by
/// resolution count (the "{round}" token of an async checkpoint path).
std::vector<std::filesystem::path> cadence_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_r", 0) == 0 && name.find(".bin") != std::string::npos) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end(),
            [](const std::filesystem::path& a, const std::filesystem::path& b) {
              return std::stoull(a.filename().string().substr(6)) <
                     std::stoull(b.filename().string().substr(6));
            });
  return files;
}

/// Extracts an unsigned field from the first `event` line of a JSONL trace.
std::uint64_t trace_field_u64(const std::string& trace, std::string_view event,
                              std::string_view field) {
  std::istringstream in(trace);
  std::string line;
  const std::string needle = "\"event\":\"" + std::string(event) + "\"";
  const std::string key = "\"" + std::string(field) + "\":";
  while (std::getline(in, line)) {
    if (line.find(needle) == std::string::npos) continue;
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) break;
    return std::stoull(line.substr(pos + key.size()));
  }
  ADD_FAILURE() << "trace has no " << event << " line with field " << field;
  return 0;
}

// Every resolution-cadence point of an async run is a valid resume origin,
// and at least some of them must be genuinely mid-flight (clients in the
// air, a partially filled buffer) or the suite proves nothing.
TEST(AsyncResume, EveryCadencePointResumesBitwiseIdentically) {
  // Also with batteries: depleted devices leave the selectable mask mid-run.
  for (const bool batteries : {false, true}) {
    SCOPED_TRACE(batteries ? "batteries" : "no batteries");
    TrainerOptions options = testing::resume_options(/*faults=*/true, 1);
    if (batteries) options = testing::with_batteries(options);
    const std::filesystem::path dir = testing::resume_tmp_dir(
        batteries ? "async_cadence_batteries" : "async_cadence");
    TrainerOptions golden_options = options;
    golden_options.checkpoint_every = 3;
    golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
    const testing::ResumeRun golden =
        testing::run_async_case(world(), "HELCFL", golden_options, fedbuff_engine());

    const std::vector<std::filesystem::path> snapshots = cadence_files(dir);
    ASSERT_GE(snapshots.size(), 2U) << "cadence produced too few snapshots";

    bool saw_in_flight = false;
    bool saw_buffered = false;
    bool saw_pending_events = false;
    for (const std::filesystem::path& path : snapshots) {
      SCOPED_TRACE(path.filename().string());
      const Checkpoint ckpt = Checkpoint::read_file(path.string());
      EXPECT_TRUE(ckpt.async_enabled);
      EXPECT_FALSE(ckpt.async_state.empty());
      // The async frame opens with five u64 cursors and three f64 clocks;
      // the event queue (next_seq, count, events) follows the busy mask.
      util::ByteReader reader(ckpt.async_state);
      for (int i = 0; i < 5; ++i) reader.u64();
      for (int i = 0; i < 3; ++i) reader.f64();
      reader.vec_u8();     // busy mask
      reader.u64();        // queue next_seq
      saw_pending_events = saw_pending_events || reader.u64() > 0;

      TrainerOptions resumed_options = options;
      resumed_options.resume_from = path.string();
      const testing::ResumeRun resumed = testing::run_async_case(
          world(), "HELCFL", resumed_options, fedbuff_engine());
      testing::expect_bitwise_resume(dir, golden, resumed, ckpt.trace_seq);

      saw_in_flight = saw_in_flight ||
                      trace_field_u64(resumed.trace, "checkpoint_resume", "in_flight") > 0;
      saw_buffered = saw_buffered ||
                     trace_field_u64(resumed.trace, "checkpoint_resume", "buffered") > 0;
    }
    // Non-vacuousness: the matrix really crossed mid-flight state.
    EXPECT_TRUE(saw_pending_events);
    EXPECT_TRUE(saw_in_flight);
    EXPECT_TRUE(saw_buffered);
    if (batteries) EXPECT_TRUE(testing::some_device_depleted(golden.history));
  }
}

// A snapshot taken by a sequential run must resume bitwise identically on a
// 4-thread pool: worker count is rebuild-time configuration, not state.
TEST(AsyncResume, SnapshotsAreThreadCountPortable) {
  const std::filesystem::path dir = testing::resume_tmp_dir("async_cross_threads");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/true, 1);
  golden_options.checkpoint_every = 4;
  golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
  const testing::ResumeRun golden =
      testing::run_async_case(world(), "HELCFL", golden_options, fedbuff_engine());

  const std::vector<std::filesystem::path> snapshots = cadence_files(dir);
  ASSERT_FALSE(snapshots.empty());
  const std::filesystem::path mid = snapshots[snapshots.size() / 2];
  const Checkpoint ckpt = Checkpoint::read_file(mid.string());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TrainerOptions resumed_options = testing::resume_options(/*faults=*/true, threads);
    resumed_options.resume_from = mid.string();
    const testing::ResumeRun resumed = testing::run_async_case(
        world(), "HELCFL", resumed_options, fedbuff_engine());
    testing::expect_bitwise_resume(dir, golden, resumed, ckpt.trace_seq);
  }
}

// Kill-and-recover, chained: a run resumed from snapshot A writes its own
// cadence snapshots; dying again and resuming from one of *those* must
// still land on the golden model.  (A recovered process is not a special
// process — its checkpoints are as good as the first run's.)
TEST(AsyncResume, ResumedRunsCheckpointsAreValidResumeOrigins) {
  const std::filesystem::path dir_a = testing::resume_tmp_dir("async_chain_a");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/true, 1);
  golden_options.checkpoint_every = 3;
  golden_options.checkpoint_path = (dir_a / "ckpt_r{round}.bin").string();
  const testing::ResumeRun golden =
      testing::run_async_case(world(), "HELCFL", golden_options, fedbuff_engine());

  const std::vector<std::filesystem::path> first = cadence_files(dir_a);
  ASSERT_GE(first.size(), 2U);

  // Second life: resume from the first snapshot, writing its own cadence.
  const std::filesystem::path dir_b = testing::resume_tmp_dir("async_chain_b");
  TrainerOptions second_options = testing::resume_options(/*faults=*/true, 1);
  second_options.resume_from = first.front().string();
  second_options.checkpoint_every = 3;
  second_options.checkpoint_path = (dir_b / "ckpt_r{round}.bin").string();
  const testing::ResumeRun second =
      testing::run_async_case(world(), "HELCFL", second_options, fedbuff_engine());
  EXPECT_EQ(golden.final_weights, second.final_weights);

  const std::vector<std::filesystem::path> chained = cadence_files(dir_b);
  ASSERT_FALSE(chained.empty());
  const Checkpoint ckpt = Checkpoint::read_file(chained.back().string());

  // Third life: resume from the recovered run's own snapshot.
  TrainerOptions third_options = testing::resume_options(/*faults=*/true, 1);
  third_options.resume_from = chained.back().string();
  const testing::ResumeRun third =
      testing::run_async_case(world(), "HELCFL", third_options, fedbuff_engine());

  EXPECT_EQ(golden.final_weights, third.final_weights);
  testing::expect_history_identical(golden.history, third.history);
  EXPECT_EQ(testing::history_csv_bytes(dir_b, "golden", golden.history),
            testing::history_csv_bytes(dir_b, "third", third.history));
  // The third life's whole trace is the second life's suffix.
  const auto suffix = testing::canonical_trace(second.trace, ckpt.trace_seq);
  EXPECT_FALSE(suffix.empty());
  EXPECT_EQ(suffix, testing::canonical_trace(third.trace, 0));
}

// --- engine-mode firewall -------------------------------------------------

TEST(AsyncResume, SyncSnapshotIsRejectedByTheAsyncEngine) {
  const std::filesystem::path dir = testing::resume_tmp_dir("async_mode_firewall");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/false, 1);
  golden_options.checkpoint_every = 2;
  golden_options.checkpoint_path = (dir / "sync_r{round}.bin").string();
  const testing::ResumeRun golden =
      testing::run_resume_case(world(), "HELCFL", golden_options);
  const std::string sync_ckpt = (dir / "sync_r2.bin").string();
  ASSERT_TRUE(std::filesystem::exists(sync_ckpt));
  EXPECT_FALSE(Checkpoint::read_file(sync_ckpt).async_enabled);

  TrainerOptions options = testing::resume_options(/*faults=*/false, 1);
  options.resume_from = sync_ckpt;
  EXPECT_THROW(
      testing::run_async_case(world(), "HELCFL", options, fedbuff_engine()),
      CheckpointError);

  // The sync engine of AsyncTrainer accepts it — and stays bitwise golden.
  const Checkpoint ckpt = Checkpoint::read_file(sync_ckpt);
  const testing::ResumeRun resumed =
      testing::run_async_case(world(), "HELCFL", options, AsyncOptions{});
  testing::expect_bitwise_resume(dir, golden, resumed, ckpt.trace_seq);
}

TEST(AsyncResume, AsyncSnapshotIsRejectedByBothSyncEngines) {
  const std::filesystem::path dir = testing::resume_tmp_dir("async_mode_firewall2");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/false, 1);
  golden_options.checkpoint_every = 3;
  golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
  testing::run_async_case(world(), "HELCFL", golden_options, fedbuff_engine());
  const std::vector<std::filesystem::path> snapshots = cadence_files(dir);
  ASSERT_FALSE(snapshots.empty());
  ASSERT_TRUE(Checkpoint::read_file(snapshots.front().string()).async_enabled);

  TrainerOptions options = testing::resume_options(/*faults=*/false, 1);
  options.resume_from = snapshots.front().string();
  // FederatedTrainer proper.
  EXPECT_THROW(testing::run_resume_case(world(), "HELCFL", options), CheckpointError);
  // AsyncTrainer degenerated to the barrier engine.
  EXPECT_THROW(testing::run_async_case(world(), "HELCFL", options, AsyncOptions{}),
               CheckpointError);
}

// --- parse-then-commit under corruption -----------------------------------

/// Runs an async resume attempt against `path` on a hand-built trainer and
/// asserts it throws without touching the model.
void expect_rejected_resume_leaves_model_untouched(const std::string& path) {
  util::Rng model_rng(92);
  const std::unique_ptr<nn::Sequential> model = nn::make_model(
      nn::ModelKind::kLogistic, world().split.train.spec(), 10, model_rng);
  const std::vector<float> initial = nn::extract_parameters(*model);
  const std::unique_ptr<sched::SelectionStrategy> strategy =
      testing::make_resume_strategy("HELCFL");
  TrainerOptions options = testing::resume_options(/*faults=*/true, 1);
  options.resume_from = path;
  AsyncTrainer trainer(*model, world().split.train, world().split.test,
                       world().partition, world().devices,
                       testing::paper_channel(), *strategy, options,
                       fedbuff_engine());
  EXPECT_THROW(trainer.run(), CheckpointError);
  EXPECT_EQ(nn::extract_parameters(*model), initial);
}

TEST(AsyncResume, CorruptAsyncFramesAreRejectedWithoutSideEffects) {
  const std::filesystem::path dir = testing::resume_tmp_dir("async_corrupt");
  TrainerOptions golden_options = testing::resume_options(/*faults=*/true, 1);
  golden_options.checkpoint_every = 3;
  golden_options.checkpoint_path = (dir / "ckpt_r{round}.bin").string();
  testing::run_async_case(world(), "HELCFL", golden_options, fedbuff_engine());
  const std::vector<std::filesystem::path> snapshots = cadence_files(dir);
  ASSERT_FALSE(snapshots.empty());
  const Checkpoint good = Checkpoint::read_file(snapshots.front().string());
  ASSERT_FALSE(good.async_state.empty());

  {  // Truncated async frame: the final reads run off the end.
    Checkpoint bad = good;
    bad.async_state.pop_back();
    const std::string path = (dir / "truncated.bin").string();
    bad.write_file(path);
    expect_rejected_resume_leaves_model_untouched(path);
  }
  {  // Gutted frame: async_enabled set with nothing behind it.
    Checkpoint bad = good;
    bad.async_state.clear();
    const std::string path = (dir / "gutted.bin").string();
    bad.write_file(path);
    expect_rejected_resume_leaves_model_untouched(path);
  }
  {  // A flipped bit in the raw file trips the payload checksum first.
    std::ifstream in(snapshots.front(), std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 64U);
    bytes[bytes.size() - 9] ^= 0x40;  // anywhere in the payload will do
    const std::string path = (dir / "bitflip.bin").string();
    std::ofstream(path, std::ios::binary).write(bytes.data(), bytes.size());
    EXPECT_THROW(Checkpoint::read_file(path), CheckpointError);
    expect_rejected_resume_leaves_model_untouched(path);
  }
}

}  // namespace
}  // namespace helcfl::fl
