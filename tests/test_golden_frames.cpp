// Golden wire fixtures (tests/data/, written before the record layouts
// became util::Save/util::Load field walks): every persisted record must
// still parse them, write the very same bytes back, and mean the same
// values; and every proper prefix of every frame, like every component
// frame with one byte added, must be rejected without changing the target.
// Nothing here trains, so the checks hold on any host and ISA.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "golden_frames.h"

namespace helcfl {
namespace {

namespace golden = testing::golden;
using Bytes = std::vector<std::uint8_t>;

// Pinned by the pre-conversion build (see tests/data/README.md).
constexpr std::uint64_t kSyncCheckpointDigest = 0x5f8d15e55885adbdULL;
constexpr std::uint64_t kSyncComponentsDigest = 0xa8ed7358fc16791dULL;
constexpr std::uint64_t kAsyncCheckpointDigest = 0xda5f1ec1188d7752ULL;
constexpr std::uint64_t kAsyncComponentsDigest = 0x93dcaee83cf8f10dULL;
constexpr std::uint64_t kAsyncStateDigest = 0x2d1df4351e2c6fafULL;
constexpr std::pair<const char*, std::uint64_t> kStrategyDigests[] = {
    {"ClassicFL", 0x63017c59af06c496ULL},
    {"FEDL", 0x1340a8d4a9826811ULL},
    {"FedCS", 0xc549b9b44b4503a5ULL},
    {"Oort", 0x2e331e3eb002619cULL},
};
constexpr std::uint64_t kServiceDigest = 0xdff7af81b1033512ULL;

const golden::World& world() {
  static const golden::World kWorld;
  return kWorld;
}

Bytes prefix(std::span<const std::uint8_t> bytes, std::size_t n) {
  return {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// Every proper prefix of `frame` must make `load` throw E, and `saved()`
/// (the target's bytes) must be unchanged afterwards.
template <typename E>
void expect_prefixes_rejected(std::span<const std::uint8_t> frame,
                              const std::function<void(const Bytes&)>& load,
                              const std::function<Bytes()>& saved, const std::string& what) {
  const Bytes before = saved();
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_THROW(load(prefix(frame, n)), E) << what << ": accepted a " << n << "-byte prefix";
    ASSERT_EQ(saved(), before) << what << ": a rejected " << n << "-byte prefix left changes";
  }
}

/// `longer`, a copy of `frame` with one byte added, must make `load` throw
/// and leave `saved()` unchanged although the frame's own bytes parse: the
/// target may not commit what it parsed before it finds the extra byte.
/// The target must not already hold the frame's state, or nothing shows.
void expect_extra_byte_rejected(const Bytes& frame, const Bytes& longer,
                                const std::function<void(const Bytes&)>& load,
                                const std::function<Bytes()>& saved, const std::string& what) {
  const Bytes before = saved();
  ASSERT_NE(before, frame) << what << ": the target already holds the frame's state";
  EXPECT_THROW(load(longer), util::SerialError) << what << ": accepted an extra byte";
  EXPECT_EQ(saved(), before) << what << ": a rejected extra byte left changes";
}

/// A component frame plus a trailing byte is rejected by the freshly built
/// component, which stays as built; the frame itself then loads and saves
/// back byte-identically, and every proper prefix is rejected.
template <typename Component>
void check_component_frame(Component& fresh, const Bytes& frame, const std::string& what) {
  const auto load = [&](const Bytes& bytes) { util::load_state_exact(fresh, bytes, what); };
  const auto saved = [&] { return util::to_bytes(fresh); };
  Bytes longer = frame;
  longer.push_back(0x5A);
  expect_extra_byte_rejected(frame, longer, load, saved, what);
  util::load_state_exact(fresh, frame, what);
  EXPECT_EQ(util::to_bytes(fresh), frame) << what;
  expect_prefixes_rejected<util::SerialError>(frame, load, saved, what);
}

/// The same with the byte appended inside the length-prefixed payload,
/// where the strategy's own payload check (not load_state_exact's) must
/// find it.
void check_strategy_payload_extra_byte(sched::SelectionStrategy& fresh, const Bytes& frame,
                                       const std::string& what) {
  util::ByteReader reader(frame);
  const std::string name = reader.str();
  Bytes payload = reader.vec_u8();
  payload.push_back(0x5A);
  util::ByteWriter reframed;
  reframed.str(name);
  reframed.vec_u8(payload);
  expect_extra_byte_rejected(
      frame, reframed.data(),
      [&](const Bytes& bytes) { util::load_state_exact(fresh, bytes, what); },
      [&] { return util::to_bytes(fresh); }, what);
}

/// The strategy frame is name + length-prefixed payload, so a prefix of the
/// whole frame mostly trips the length prefix; re-framing each payload
/// prefix exercises the strategy's own walk.
void check_strategy_payload_prefixes(sched::SelectionStrategy& strategy, const Bytes& frame) {
  util::ByteReader reader(frame);
  const std::string name = reader.str();
  const Bytes payload = reader.vec_u8();
  const Bytes before = util::to_bytes(strategy);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    util::ByteWriter reframed;
    reframed.str(name);
    reframed.vec_u8(prefix(payload, n));
    EXPECT_THROW(util::load_state_exact(strategy, reframed.data(), "strategy"),
                 util::SerialError)
        << "accepted a " << n << "-byte strategy payload";
    ASSERT_EQ(util::to_bytes(strategy), before);
  }
}

void check_checkpoint(const std::string& name, bool async, std::uint64_t checkpoint_digest,
                      std::uint64_t components_digest) {
  const Bytes bytes = golden::read_fixture(name);
  const fl::Checkpoint ckpt = fl::Checkpoint::deserialize(bytes);
  EXPECT_EQ(ckpt.serialize(), bytes);
  EXPECT_EQ(ckpt.async_enabled, async);
  EXPECT_EQ(ckpt.n_users, golden::kUsers);
  EXPECT_EQ(golden::checkpoint_digest(ckpt), checkpoint_digest);
  EXPECT_EQ(golden::components_digest(ckpt, world()), components_digest);

  // Every component frame, through a freshly built component.
  const std::unique_ptr<core::HelcflScheduler> strategy = golden::make_strategy();
  check_strategy_payload_extra_byte(*strategy, ckpt.strategy_state, "strategy");
  check_component_frame(*strategy, ckpt.strategy_state, "strategy");
  check_strategy_payload_prefixes(*strategy, ckpt.strategy_state);
  mec::FaultInjector injector = golden::make_injector();
  check_component_frame(injector, ckpt.injector_state, "injector");
  mec::FadingProcess fading = golden::make_fading();
  check_component_frame(fading, ckpt.fading_state, "fading");
  mec::BatteryFleet batteries = golden::make_batteries();
  check_component_frame(batteries, ckpt.battery_state, "batteries");

  // The sealed image: a prefix fails the envelope; a re-sealed payload
  // prefix reaches the record walk.
  const auto no_target = [] { return Bytes{}; };
  expect_prefixes_rejected<fl::CheckpointError>(
      bytes, [](const Bytes& b) { fl::Checkpoint::deserialize(b); }, no_target, name);
  const std::span<const std::uint8_t> payload =
      std::span(bytes).subspan(util::kSealHeaderBytes);
  expect_prefixes_rejected<fl::CheckpointError>(
      payload,
      [](const Bytes& b) {
        fl::Checkpoint::deserialize(
            util::seal(fl::Checkpoint::kMagic, fl::Checkpoint::kVersion, b));
      },
      no_target, name + " payload");
}

TEST(GoldenFrames, SyncCheckpointRoundTripsAndRejectsEveryTruncation) {
  check_checkpoint("sync_checkpoint.bin", false, kSyncCheckpointDigest,
                   kSyncComponentsDigest);
}

TEST(GoldenFrames, AsyncCheckpointRoundTripsAndRejectsEveryTruncation) {
  check_checkpoint("async_checkpoint.bin", true, kAsyncCheckpointDigest,
                   kAsyncComponentsDigest);
  const fl::Checkpoint ckpt =
      fl::Checkpoint::deserialize(golden::read_fixture("async_checkpoint.bin"));
  const fl::AsyncState state = fl::AsyncState::load(ckpt.async_state, golden::kUsers);
  EXPECT_EQ(state.save(), ckpt.async_state);
  EXPECT_FALSE(state.in_flight.empty());
  EXPECT_FALSE(state.buffer.empty());
  EXPECT_EQ(golden::async_state_digest(state), kAsyncStateDigest);
  expect_prefixes_rejected<fl::CheckpointError>(
      ckpt.async_state, [](const Bytes& b) { fl::AsyncState::load(b, golden::kUsers); },
      [] { return Bytes{}; }, "async state");
}

TEST(GoldenFrames, StrategyFramesRoundTripAndRejectEveryTruncation) {
  for (const auto& [name, digest] : kStrategyDigests) {
    const Bytes frame = golden::read_fixture(golden::strategy_fixture(name));
    const std::unique_ptr<sched::SelectionStrategy> strategy =
        golden::make_other_strategy(name);
    check_strategy_payload_extra_byte(*strategy, frame, name);
    check_component_frame(*strategy, frame, name);
    check_strategy_payload_prefixes(*strategy, frame);
    EXPECT_EQ(golden::strategy_digest(*strategy), digest) << name;
  }
}

TEST(GoldenFrames, ServiceSnapshotRoundTripsAndRejectsEveryTruncation) {
  const Bytes image = golden::read_fixture("service_snapshot.bin");
  svc::SchedulerService service = golden::make_service();
  service.restore(image);
  EXPECT_EQ(service.snapshot(), image);
  EXPECT_EQ(service.queue_depth(), 2u);
  EXPECT_EQ(golden::service_digest(image), kServiceDigest);

  const auto restore = [&](const Bytes& b) { service.restore(b); };
  const auto saved = [&] { return service.snapshot(); };
  expect_prefixes_rejected<svc::ServiceError>(image, restore, saved, "snapshot");
  const std::span<const std::uint8_t> payload =
      std::span(image).subspan(util::kSealHeaderBytes);
  expect_prefixes_rejected<svc::ServiceError>(
      payload,
      [&](const Bytes& b) {
        service.restore(util::seal(svc::SchedulerService::kSnapshotMagic,
                                   svc::SchedulerService::kSnapshotVersion, b));
      },
      saved, "snapshot payload");
}

// Field-wise equality: a walk with two same-typed fields swapped would still
// round-trip its own bytes.
bool same(const svc::DeviceReport& a, const svc::DeviceReport& b) {
  return a.device_id == b.device_id && a.report_seq == b.report_seq &&
         a.t_cal_max_s == b.t_cal_max_s && a.t_com_s == b.t_com_s;
}
bool same(const svc::ReportAck& a, const svc::ReportAck& b) {
  return a.device_id == b.device_id && a.report_seq == b.report_seq;
}
bool same(const svc::DecisionRequest& a, const svc::DecisionRequest& b) {
  return a.controller_seq == b.controller_seq && a.round == b.round;
}
bool same(const svc::DecisionResponse& a, const svc::DecisionResponse& b) {
  return a.controller_seq == b.controller_seq && a.round == b.round &&
         a.degraded == b.degraded && a.selected == b.selected &&
         a.frequencies_hz == b.frequencies_hz;
}

template <typename Msg>
void check_message(const std::string& name, const Msg& expected,
                   Msg (*decode)(std::span<const std::uint8_t>)) {
  const Bytes payload = golden::read_fixture(name);
  const Msg msg = decode(payload);
  EXPECT_EQ(svc::encode(msg).payload, payload) << name;
  EXPECT_TRUE(same(msg, expected)) << name;
  expect_prefixes_rejected<util::SerialError>(
      payload, [&](const Bytes& b) { decode(b); }, [] { return Bytes{}; }, name);
}

TEST(GoldenFrames, MessagePayloadsRoundTripAndRejectEveryTruncation) {
  check_message("msg_device_report.bin", golden::report_message(), svc::decode_device_report);
  check_message("msg_report_ack.bin", golden::ack_message(), svc::decode_report_ack);
  check_message("msg_decision_request.bin", golden::request_message(),
                svc::decode_decision_request);
  check_message("msg_decision_response.bin", golden::response_message(),
                svc::decode_decision_response);
}

}  // namespace
}  // namespace helcfl
