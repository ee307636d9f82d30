#include "fl/checkpoint.h"

#include "util/file_io.h"

namespace helcfl::fl {

namespace {

// Smallest possible wire size of one RoundRecord: 16 fixed 8-byte fields
// (u64/f64), two empty vec_size (8-byte count each), and two booleans.
// Used to cap an adversarial record count before reserving for it.
constexpr std::size_t kMinRecordBytes = 16 * 8 + 2 * 8 + 2;

void write_record(util::ByteWriter& out, const RoundRecord& r) {
  out.u64(static_cast<std::uint64_t>(r.round));
  out.vec_size(r.selected);
  out.f64(r.round_delay_s);
  out.f64(r.round_energy_j);
  out.f64(r.cum_delay_s);
  out.f64(r.cum_energy_j);
  out.f64(r.train_loss);
  out.boolean(r.evaluated);
  out.f64(r.test_loss);
  out.f64(r.test_accuracy);
  out.u64(static_cast<std::uint64_t>(r.alive_users));
  out.vec_size(r.aggregated);
  out.u64(static_cast<std::uint64_t>(r.survivors));
  out.u64(static_cast<std::uint64_t>(r.crashed));
  out.u64(static_cast<std::uint64_t>(r.upload_failures));
  out.u64(static_cast<std::uint64_t>(r.dropped_late));
  out.u64(static_cast<std::uint64_t>(r.retries));
  out.boolean(r.quorum_failed);
  out.f64(r.wasted_energy_j);
  out.u64(static_cast<std::uint64_t>(r.available_users));
}

RoundRecord read_record(util::ByteReader& in) {
  RoundRecord r;
  r.round = static_cast<std::size_t>(in.u64());
  r.selected = in.vec_size();
  r.round_delay_s = in.f64();
  r.round_energy_j = in.f64();
  r.cum_delay_s = in.f64();
  r.cum_energy_j = in.f64();
  r.train_loss = in.f64();
  r.evaluated = in.boolean();
  r.test_loss = in.f64();
  r.test_accuracy = in.f64();
  r.alive_users = static_cast<std::size_t>(in.u64());
  r.aggregated = in.vec_size();
  r.survivors = static_cast<std::size_t>(in.u64());
  r.crashed = static_cast<std::size_t>(in.u64());
  r.upload_failures = static_cast<std::size_t>(in.u64());
  r.dropped_late = static_cast<std::size_t>(in.u64());
  r.retries = static_cast<std::size_t>(in.u64());
  r.quorum_failed = in.boolean();
  r.wasted_energy_j = in.f64();
  r.available_users = static_cast<std::size_t>(in.u64());
  return r;
}

void write_rng_state(util::ByteWriter& out, const util::Rng::State& s) {
  for (const std::uint64_t word : s.words) out.u64(word);
  out.u64(s.seed);
  out.f64(s.cached_normal);
  out.boolean(s.has_cached_normal);
}

util::Rng::State read_rng_state(util::ByteReader& in) {
  util::Rng::State s;
  for (auto& word : s.words) word = in.u64();
  s.seed = in.u64();
  s.cached_normal = in.f64();
  s.has_cached_normal = in.boolean();
  return s;
}

}  // namespace

std::vector<std::uint8_t> Checkpoint::serialize() const {
  util::ByteWriter payload;
  payload.u64(seed);
  payload.u64(n_users);
  payload.u64(next_round);
  payload.f64(cum_delay_s);
  payload.f64(cum_energy_j);
  payload.f64(cum_wasted_energy_j);
  payload.f64(best_accuracy);
  payload.u64(trace_seq);
  payload.vec_f32(global_weights);
  payload.vec_f32(model_state);
  write_rng_state(payload, batch_rng);
  payload.str(strategy_name);
  payload.vec_u8(strategy_state);
  payload.vec_u8(injector_state);
  payload.vec_u8(fading_state);
  payload.boolean(batteries_enabled);
  payload.vec_u8(battery_state);
  payload.boolean(async_enabled);
  payload.vec_u8(async_state);
  payload.u64(records.size());
  for (const RoundRecord& record : records) write_record(payload, record);

  return util::seal(kMagic, kVersion, payload.data());
}

Checkpoint Checkpoint::deserialize(std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> rest;
  try {
    rest = util::open_sealed(bytes, kMagic, kVersion, "HELCFL checkpoint");
  } catch (const util::SerialError& error) {
    throw CheckpointError(error.what());
  }
  try {
    util::ByteReader payload(rest);
    Checkpoint ckpt;
    ckpt.seed = payload.u64();
    ckpt.n_users = payload.u64();
    ckpt.next_round = payload.u64();
    ckpt.cum_delay_s = payload.f64();
    ckpt.cum_energy_j = payload.f64();
    ckpt.cum_wasted_energy_j = payload.f64();
    ckpt.best_accuracy = payload.f64();
    ckpt.trace_seq = payload.u64();
    ckpt.global_weights = payload.vec_f32();
    ckpt.model_state = payload.vec_f32();
    ckpt.batch_rng = read_rng_state(payload);
    ckpt.strategy_name = payload.str();
    ckpt.strategy_state = payload.vec_u8();
    ckpt.injector_state = payload.vec_u8();
    ckpt.fading_state = payload.vec_u8();
    ckpt.batteries_enabled = payload.boolean();
    ckpt.battery_state = payload.vec_u8();
    ckpt.async_enabled = payload.boolean();
    ckpt.async_state = payload.vec_u8();
    const std::uint64_t n_records = payload.u64();
    // A checksum-valid but adversarial (or version-confused) file can still
    // declare an absurd record count; bound it by what the remaining bytes
    // could possibly encode before allocating anything.
    if (n_records > payload.remaining() / kMinRecordBytes) {
      throw CheckpointError(
          "checkpoint declares " + std::to_string(n_records) +
          " round records but only " + std::to_string(payload.remaining()) +
          " payload byte(s) remain — corrupted or malformed");
    }
    ckpt.records.reserve(static_cast<std::size_t>(n_records));
    for (std::uint64_t i = 0; i < n_records; ++i) {
      ckpt.records.push_back(read_record(payload));
    }
    payload.expect_end("checkpoint payload");
    return ckpt;
  } catch (const util::SerialError& error) {
    // The checksum passed, so this is a layout (not corruption) problem —
    // most likely a hand-built or version-confused file.
    throw CheckpointError(std::string("checkpoint payload is malformed: ") +
                          error.what());
  }
}

void Checkpoint::write_file(const std::string& path) const {
  try {
    util::write_file_atomic(path, serialize());
  } catch (const std::runtime_error& error) {
    throw CheckpointError(std::string("checkpoint: ") + error.what());
  }
}

Checkpoint Checkpoint::read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = util::read_file_bytes(path);
  } catch (const std::runtime_error& error) {
    throw CheckpointError(std::string("checkpoint: ") + error.what());
  }
  try {
    return deserialize(bytes);
  } catch (const CheckpointError& error) {
    throw CheckpointError("'" + path + "': " + error.what());
  }
}

}  // namespace helcfl::fl
