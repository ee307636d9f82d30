// The checkpoint format and its failure modes (docs/CHECKPOINT.md):
// save -> load -> save is byte-identical; truncated, bit-flipped,
// wrong-magic, and future-version files are rejected with distinct,
// actionable errors; and a rejected resume leaves the trainer completely
// untouched — a subsequent fresh run is bitwise identical to one that
// never attempted the resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fl/checkpoint.h"
#include "fl_fixtures.h"
#include "resume_fixtures.h"
#include "util/serial.h"

namespace helcfl::fl {
namespace {

const testing::ResumeWorld& world() {
  static const testing::ResumeWorld kWorld;
  return kWorld;
}

// A checkpoint written by a real run, as raw bytes, plus its parse.
struct GoldenCheckpoint {
  std::vector<std::uint8_t> bytes;
  Checkpoint parsed;
};

const GoldenCheckpoint& golden_checkpoint() {
  static const GoldenCheckpoint kGolden = [] {
    const std::filesystem::path dir = testing::resume_tmp_dir("format");
    TrainerOptions options = testing::resume_options(/*faults=*/true, 1);
    options.checkpoint_every = 2;
    options.checkpoint_path = (dir / "golden.ckpt").string();
    testing::run_resume_case(world(), "HELCFL", options);
    std::ifstream in(dir / "golden.ckpt", std::ios::binary);
    GoldenCheckpoint golden;
    golden.bytes.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    golden.parsed = Checkpoint::deserialize(golden.bytes);
    return golden;
  }();
  return kGolden;
}

TEST(CheckpointFormat, SaveLoadSaveIsByteIdentical) {
  const GoldenCheckpoint& golden = golden_checkpoint();
  EXPECT_FALSE(golden.bytes.empty());
  // deserialize -> serialize reproduces the exact file image.
  EXPECT_EQ(golden.parsed.serialize(), golden.bytes);
  // ... and a second round-trip stays fixed.
  const Checkpoint again = Checkpoint::deserialize(golden.parsed.serialize());
  EXPECT_EQ(again.serialize(), golden.bytes);
}

TEST(CheckpointFormat, CarriesTheRunState) {
  const Checkpoint& ckpt = golden_checkpoint().parsed;
  EXPECT_EQ(ckpt.seed, testing::kResumeSeed);
  EXPECT_EQ(ckpt.n_users, testing::kResumeUsers);
  EXPECT_EQ(ckpt.next_round, testing::kResumeRounds);  // final cadence point
  EXPECT_EQ(ckpt.strategy_name, "HELCFL");
  EXPECT_FALSE(ckpt.global_weights.empty());
  EXPECT_FALSE(ckpt.strategy_state.empty());
  EXPECT_FALSE(ckpt.injector_state.empty());
  EXPECT_EQ(ckpt.records.size(), testing::kResumeRounds);
  EXPECT_GT(ckpt.cum_delay_s, 0.0);
  EXPECT_GT(ckpt.cum_energy_j, 0.0);
}

void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& message_piece) {
  try {
    Checkpoint::deserialize(bytes);
    FAIL() << "accepted a corrupt checkpoint (wanted error containing '"
           << message_piece << "')";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find(message_piece), std::string::npos)
        << "got: " << error.what();
  }
}

TEST(CheckpointAdversarial, TruncationsAtEveryRegionAreRejected) {
  const std::vector<std::uint8_t>& bytes = golden_checkpoint().bytes;
  // Inside the 24-byte header: reported as shorter-than-header.
  for (const std::size_t n : {0UL, 1UL, 4UL, 12UL, 23UL}) {
    expect_rejected({bytes.begin(), bytes.begin() + static_cast<long>(n)},
                    "truncated");
  }
  // Inside the payload: reported as truncated (declared size > actual).
  for (const std::size_t n : {24UL, 25UL, bytes.size() / 2, bytes.size() - 1}) {
    expect_rejected({bytes.begin(), bytes.begin() + static_cast<long>(n)},
                    "truncated");
  }
}

TEST(CheckpointAdversarial, WrongMagicIsRejected) {
  std::vector<std::uint8_t> bytes = golden_checkpoint().bytes;
  bytes[0] ^= 0xFF;
  expect_rejected(bytes, "bad magic");
  // A plausible-but-wrong file (all zeros) is not misparsed either.
  expect_rejected(std::vector<std::uint8_t>(bytes.size(), 0), "bad magic");
}

TEST(CheckpointAdversarial, FutureVersionIsRejected) {
  std::vector<std::uint8_t> bytes = golden_checkpoint().bytes;
  bytes[4] = static_cast<std::uint8_t>(Checkpoint::kVersion + 1);
  expect_rejected(bytes, "version");
}

TEST(CheckpointAdversarial, PayloadBitFlipsFailTheChecksum) {
  const std::vector<std::uint8_t>& golden = golden_checkpoint().bytes;
  // Flip one bit at several payload offsets; every flip must be caught.
  for (const std::size_t offset :
       {24UL, 32UL, 24 + (golden.size() - 24) / 2, golden.size() - 1}) {
    std::vector<std::uint8_t> bytes = golden;
    bytes[offset] ^= 0x10;
    expect_rejected(bytes, "corrupted");
  }
}

TEST(CheckpointAdversarial, HugeDeclaredRecordCountIsRejectedBeforeAllocating) {
  // A checksum-VALID file declaring 2^60 round records must be rejected by
  // the record-count bound, not by an attempted multi-GB reserve().  Build
  // it honestly: serialize a record-free checkpoint, overwrite the count
  // (the last 8 payload bytes), and re-seal the checksum.
  Checkpoint ckpt = golden_checkpoint().parsed;
  ckpt.records.clear();
  std::vector<std::uint8_t> bytes = ckpt.serialize();
  const std::uint64_t huge = std::uint64_t{1} << 60;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  const std::uint64_t checksum = util::fnv1a64(
      {bytes.data() + 24, bytes.size() - 24});
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[16 + i] = static_cast<std::uint8_t>(checksum >> (8 * i));
  }
  expect_rejected(bytes, "records");
}

TEST(CheckpointAdversarial, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> bytes = golden_checkpoint().bytes;
  bytes.push_back(0);
  expect_rejected(bytes, "trailing");
}

TEST(CheckpointAdversarial, ReadFileNamesThePath) {
  const std::filesystem::path dir = testing::resume_tmp_dir("read_file");
  const std::string path = (dir / "corrupt.ckpt").string();
  std::vector<std::uint8_t> bytes = golden_checkpoint().bytes;
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  try {
    Checkpoint::read_file(path);
    FAIL() << "accepted a corrupt file";
  } catch (const CheckpointError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(Checkpoint::read_file((dir / "missing.ckpt").string()),
               CheckpointError);
}

// A rejected resume must leave the trainer untouched: after the throw, a
// fresh run over the same world produces exactly the golden trajectory.
TEST(CheckpointAdversarial, FailedResumeLeavesNoPartialRestore) {
  const std::filesystem::path dir = testing::resume_tmp_dir("no_partial");
  const testing::ResumeRun golden = testing::run_resume_case(
      world(), "Oort", testing::resume_options(/*faults=*/true, 1));

  // A checkpoint whose strategy payload is internally corrupt: flip bytes
  // near the end so the header checks pass the earlier gates is not
  // possible — the checksum catches any flip.  Instead, build a checkpoint
  // that passes deserialize() but fails the trainer's own gates: a valid
  // file saved by a *different strategy*.
  TrainerOptions save_options = testing::resume_options(/*faults=*/true, 1);
  save_options.checkpoint_every = 2;
  save_options.checkpoint_path = (dir / "other.ckpt").string();
  testing::run_resume_case(world(), "HELCFL", save_options);

  TrainerOptions bad_resume = testing::resume_options(/*faults=*/true, 1);
  bad_resume.resume_from = (dir / "other.ckpt").string();
  EXPECT_THROW(testing::run_resume_case(world(), "Oort", bad_resume),
               CheckpointError);

  // The rejected attempt above ran inside its own trainer; the durable
  // proof is at the strategy level: a strategy that survives a failed
  // load_state() must be byte-identical to before the attempt.
  const std::unique_ptr<sched::SelectionStrategy> strategy =
      testing::make_resume_strategy("Oort");
  util::ByteWriter before;
  strategy->save_state(before);
  util::ByteWriter wrong;
  testing::make_resume_strategy("HELCFL")->save_state(wrong);
  util::ByteReader reader(wrong.data());
  EXPECT_THROW(strategy->load_state(reader), util::SerialError);
  util::ByteWriter after;
  strategy->save_state(after);
  EXPECT_EQ(before.data(), after.data());

  // And end-to-end: a fresh run after the failure reproduces golden.
  const testing::ResumeRun rerun = testing::run_resume_case(
      world(), "Oort", testing::resume_options(/*faults=*/true, 1));
  EXPECT_EQ(golden.final_weights, rerun.final_weights);
  testing::expect_history_identical(golden.history, rerun.history);
}

// --- strategy state property tests -------------------------------------

// Drives a strategy through `rounds` decide/observe/report cycles on a
// small fleet so its cursors and counters move.
void advance_strategy(sched::SelectionStrategy& strategy, std::size_t rounds,
                      std::size_t start_round = 0) {
  static const std::vector<sched::UserInfo> kUsers = testing::users_with_delays(
      {{5, 1}, {9, 2}, {3, 1}, {14, 2}, {7, 1}, {11, 3}, {4, 2}, {8, 1},
       {6, 2}, {12, 1}, {2, 3}, {10, 2}});
  const sched::FleetView fleet{kUsers};
  for (std::size_t r = start_round; r < start_round + rounds; ++r) {
    const sched::Decision decision = strategy.decide(fleet, r);
    std::vector<double> losses(decision.selected.size());
    for (std::size_t i = 0; i < losses.size(); ++i) {
      losses[i] = 0.5 + 0.01 * static_cast<double>((r * 7 + i * 3) % 13);
    }
    strategy.observe(r, decision, losses);
    // Fail every 5th participant so failure streaks accumulate too.
    std::vector<std::uint8_t> completed(decision.selected.size(), 1);
    for (std::size_t i = 0; i < completed.size(); ++i) {
      if ((r + i) % 5 == 0) completed[i] = 0;
    }
    strategy.report_completion(r, decision, completed);
  }
}

std::vector<std::uint8_t> strategy_bytes(const sched::SelectionStrategy& strategy) {
  util::ByteWriter writer;
  strategy.save_state(writer);
  return writer.take();
}

class StrategyStateRoundTrip : public ::testing::TestWithParam<std::string> {};

// save -> load -> save is byte-identical at ~100 distinct cursors.
TEST_P(StrategyStateRoundTrip, SaveLoadSaveIsByteIdenticalAtManyCursors) {
  const std::string& name = GetParam();
  const std::unique_ptr<sched::SelectionStrategy> source =
      testing::make_resume_strategy(name);
  for (std::size_t step = 0; step < 100; ++step) {
    advance_strategy(*source, 1, step);
    const std::vector<std::uint8_t> saved = strategy_bytes(*source);

    const std::unique_ptr<sched::SelectionStrategy> sink =
        testing::make_resume_strategy(name);
    util::ByteReader reader(saved);
    sink->load_state(reader);
    reader.expect_end("strategy frame");
    EXPECT_EQ(strategy_bytes(*sink), saved) << name << " at step " << step;
  }
}

// A restored strategy continues exactly like the original.
TEST_P(StrategyStateRoundTrip, RestoredStrategyContinuesIdentically) {
  const std::string& name = GetParam();
  const std::unique_ptr<sched::SelectionStrategy> original =
      testing::make_resume_strategy(name);
  advance_strategy(*original, 17);
  const std::vector<std::uint8_t> saved = strategy_bytes(*original);

  const std::unique_ptr<sched::SelectionStrategy> restored =
      testing::make_resume_strategy(name);
  util::ByteReader reader(saved);
  restored->load_state(reader);

  advance_strategy(*original, 10, 17);
  advance_strategy(*restored, 10, 17);
  EXPECT_EQ(strategy_bytes(*original), strategy_bytes(*restored));
}

// Satellite fix regression: reset() must be indistinguishable from loading
// the construction-time snapshot — one code path, no drift.
TEST_P(StrategyStateRoundTrip, ResetEqualsLoadingTheInitialSnapshot) {
  const std::string& name = GetParam();
  const std::unique_ptr<sched::SelectionStrategy> fresh =
      testing::make_resume_strategy(name);
  const std::vector<std::uint8_t> initial = strategy_bytes(*fresh);
  EXPECT_EQ(initial, std::vector<std::uint8_t>(fresh->initial_state().begin(),
                                               fresh->initial_state().end()));

  // Path 1: advance, then reset().
  const std::unique_ptr<sched::SelectionStrategy> via_reset =
      testing::make_resume_strategy(name);
  advance_strategy(*via_reset, 23);
  via_reset->reset();

  // Path 2: advance, then load_state(initial snapshot).
  const std::unique_ptr<sched::SelectionStrategy> via_load =
      testing::make_resume_strategy(name);
  advance_strategy(*via_load, 23);
  util::ByteReader reader(initial);
  via_load->load_state(reader);

  EXPECT_EQ(strategy_bytes(*via_reset), initial);
  EXPECT_EQ(strategy_bytes(*via_load), initial);

  // ... and both continue like a never-advanced strategy.
  advance_strategy(*via_reset, 5);
  advance_strategy(*via_load, 5);
  const std::unique_ptr<sched::SelectionStrategy> never_advanced =
      testing::make_resume_strategy(name);
  advance_strategy(*never_advanced, 5);
  EXPECT_EQ(strategy_bytes(*via_reset), strategy_bytes(*never_advanced));
  EXPECT_EQ(strategy_bytes(*via_load), strategy_bytes(*never_advanced));
}

// Loading a frame saved by a different strategy type fails loudly and
// leaves the target unchanged.
TEST_P(StrategyStateRoundTrip, CrossStrategyLoadIsRejected) {
  const std::string& name = GetParam();
  const std::string other = name == "HELCFL" ? "FedCS" : "HELCFL";
  const std::unique_ptr<sched::SelectionStrategy> target =
      testing::make_resume_strategy(name);
  const std::vector<std::uint8_t> before = strategy_bytes(*target);

  const std::unique_ptr<sched::SelectionStrategy> source =
      testing::make_resume_strategy(other);
  advance_strategy(*source, 3);
  // The reader borrows its bytes, so they must outlive it.
  const std::vector<std::uint8_t> frame = strategy_bytes(*source);
  util::ByteReader reader(frame);
  EXPECT_THROW(target->load_state(reader), util::SerialError);
  EXPECT_EQ(strategy_bytes(*target), before);
}

// --- utility-index frame adversarial cases (checkpoint v2) --------------
//
// The HELCFL strategy payload ends with the utility-index frame:
//   ... vec_size counters | bool initialized | vec_f64 t_cal | vec_f64 t_com
// These tests splice corrupt index frames into otherwise-valid strategy
// frames; every mutation must be rejected with the strategy untouched.

// Splits a strategy frame (str name + u64 payload length + payload) and
// re-frames a tampered payload.
std::vector<std::uint8_t> reframe_payload(const std::vector<std::uint8_t>& frame,
                                          const std::vector<std::uint8_t>& payload) {
  util::ByteReader reader(frame);
  const std::string name = reader.str();
  util::ByteWriter writer;
  writer.str(name);
  writer.u64(payload.size());
  writer.raw(payload);
  return writer.take();
}

std::vector<std::uint8_t> frame_payload(const std::vector<std::uint8_t>& frame) {
  util::ByteReader reader(frame);
  reader.str();
  const std::uint64_t length = reader.u64();
  const std::span<const std::uint8_t> payload = reader.raw(length);
  return {payload.begin(), payload.end()};
}

// Rejecting a corrupt frame must not leave a partial restore behind: the
// target still serializes to its pre-attempt bytes and keeps selecting.
void expect_index_frame_rejected(const std::vector<std::uint8_t>& frame,
                                 const std::string& message_piece) {
  const std::unique_ptr<sched::SelectionStrategy> target =
      testing::make_resume_strategy("HELCFL");
  advance_strategy(*target, 5);
  const std::vector<std::uint8_t> before = strategy_bytes(*target);
  util::ByteReader reader(frame);
  try {
    target->load_state(reader);
    FAIL() << "accepted a corrupt index frame (wanted error containing '"
           << message_piece << "')";
  } catch (const util::SerialError& error) {
    EXPECT_NE(std::string(error.what()).find(message_piece), std::string::npos)
        << "got: " << error.what();
  }
  EXPECT_EQ(strategy_bytes(*target), before);
  advance_strategy(*target, 1, 5);  // still functional after the rejection
}

class IndexFrameAdversarial : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::unique_ptr<sched::SelectionStrategy> source =
        testing::make_resume_strategy("HELCFL");
    advance_strategy(*source, 7);
    frame_ = strategy_bytes(*source);
    payload_ = frame_payload(frame_);
    // The index delay caches are two 12-user vec_f64s at the payload tail.
    ASSERT_GT(payload_.size(), 2 * kVecBytes);
  }

  static constexpr std::size_t kVecBytes = 8 + 12 * 8;  // u64 count + doubles

  std::vector<std::uint8_t> frame_;
  std::vector<std::uint8_t> payload_;
};

TEST_F(IndexFrameAdversarial, TruncatedDelayCacheIsRejected) {
  // Drop the final t_com double; the vec_f64 read overruns the payload.
  std::vector<std::uint8_t> payload = payload_;
  payload.resize(payload.size() - 8);
  expect_index_frame_rejected(reframe_payload(frame_, payload), "");
}

TEST_F(IndexFrameAdversarial, DelayCacheSizeMismatchIsRejected) {
  // Rewrite t_com as an 11-element vector against 12 counters.
  std::vector<std::uint8_t> payload(payload_.begin(),
                                    payload_.end() - static_cast<long>(kVecBytes));
  util::ByteWriter t_com;
  t_com.u64(11);
  payload.insert(payload.end(), t_com.data().begin(), t_com.data().end());
  payload.insert(payload.end(), payload_.end() - static_cast<long>(kVecBytes) + 8,
                 payload_.end() - 8);
  expect_index_frame_rejected(reframe_payload(frame_, payload), "delay");
}

TEST_F(IndexFrameAdversarial, NegativeCachedDelayIsRejected) {
  // Flip the sign bit of the last t_cal double (little-endian: high byte),
  // driving that user's cached total delay negative.
  std::vector<std::uint8_t> payload = payload_;
  payload[payload.size() - kVecBytes - 1] ^= 0x80;
  expect_index_frame_rejected(reframe_payload(frame_, payload), "delay");
}

TEST_F(IndexFrameAdversarial, UninitializedIndexFlagRoundTrips) {
  // A never-selected strategy saves initialized=false; that frame must
  // restore to a selector whose first select() builds the index afresh.
  const std::unique_ptr<sched::SelectionStrategy> fresh =
      testing::make_resume_strategy("HELCFL");
  const std::vector<std::uint8_t> initial = strategy_bytes(*fresh);
  const std::unique_ptr<sched::SelectionStrategy> restored =
      testing::make_resume_strategy("HELCFL");
  advance_strategy(*restored, 3);  // index initialized...
  util::ByteReader reader(initial);
  restored->load_state(reader);    // ...then wound back to the blank frame
  EXPECT_EQ(strategy_bytes(*restored), initial);
  advance_strategy(*restored, 4);
  const std::unique_ptr<sched::SelectionStrategy> never_restored =
      testing::make_resume_strategy("HELCFL");
  advance_strategy(*never_restored, 4);
  EXPECT_EQ(strategy_bytes(*restored), strategy_bytes(*never_restored));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyStateRoundTrip,
                         ::testing::ValuesIn(testing::resume_strategies()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace helcfl::fl
