#include "fl/checkpoint.h"

#include "util/file_io.h"

namespace helcfl::fl {

// The walks live in namespace fl (not an unnamed one) so util::to_bytes /
// from_bytes and the counted-records walk find them by ADL.

void fields(auto&& io, util::RecordOf<RoundRecord> auto& r) {
  io(r.round);
  io(r.selected);
  io(r.round_delay_s);
  io(r.round_energy_j);
  io(r.cum_delay_s);
  io(r.cum_energy_j);
  io(r.train_loss);
  io(r.evaluated);
  io(r.test_loss);
  io(r.test_accuracy);
  io(r.alive_users);
  io(r.aggregated);
  io(r.survivors);
  io(r.crashed);
  io(r.upload_failures);
  io(r.dropped_late);
  io(r.retries);
  io(r.quorum_failed);
  io(r.wasted_energy_j);
  io(r.available_users);
}

// Smallest possible wire size of one RoundRecord: 16 fixed 8-byte fields
// (u64/f64), two empty vectors (8-byte count each), and two booleans.
constexpr std::size_t kMinRecordBytes = 16 * 8 + 2 * 8 + 2;

void fields(auto&& io, util::RecordOf<Checkpoint> auto& c) {
  io(c.seed);
  io(c.n_users);
  io(c.next_round);
  io(c.cum_delay_s);
  io(c.cum_energy_j);
  io(c.cum_wasted_energy_j);
  io(c.best_accuracy);
  io(c.trace_seq);
  io(c.global_weights);
  io(c.model_state);
  fields(io, c.batch_rng);
  io(c.strategy_name);
  io(c.strategy_state);
  io(c.injector_state);
  io(c.fading_state);
  io(c.batteries_enabled);
  io(c.battery_state);
  io(c.async_enabled);
  io(c.async_state);
  io(c.records, kMinRecordBytes, "round records");
}

std::vector<std::uint8_t> Checkpoint::serialize() const {
  return util::seal(kMagic, kVersion, util::to_bytes(*this));
}

Checkpoint Checkpoint::deserialize(std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> payload;
  try {
    payload = util::open_sealed(bytes, kMagic, kVersion, "HELCFL checkpoint");
  } catch (const util::SerialError& error) {
    throw CheckpointError(error.what());
  }
  try {
    return util::from_bytes<Checkpoint>(payload, "checkpoint payload");
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
