#include "fl/async_state.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "fl/checkpoint.h"
#include "util/serial.h"

namespace helcfl::fl {

// The walks live in namespace fl so util::to_bytes/from_bytes find them.

void fields(auto&& io, util::RecordOf<AsyncDispatch> auto& d) {
  io(d.id);
  io(d.user);
  io(d.version);
  io(d.frequency_hz);
  io(d.dispatch_time_s);
  io(d.compute_end_s);
  io(d.upload_start_s);
  io(d.out.compute_delay_s);
  io(d.out.upload_duration_s);
  io(d.out.occupancy_s);
  io(d.out.attempts);
  io(d.out.upload_ok);
  io(d.out.trained);
  io(d.crashed);
  io(d.crash_fraction);
  io(d.slowdown);
  io(d.failed_attempts);
  io(d.out.energy_j);
  io(d.out.update.weights);
  io(d.out.update.train_loss);
  io(d.out.update.num_samples);
  io(d.out.state);
}

/// A buffered update is stored with only the fields aggregation reads.
constexpr auto buffered_fields = [](auto& io, auto& d) {
  io(d.user);
  io(d.id);
  io(d.version);
  io(d.frequency_hz);
  io(d.out.update.weights);
  io(d.out.update.train_loss);
  io(d.out.update.num_samples);
  io(d.out.state);
  io(d.out.energy_j);
};

void fields(auto&& io, util::RecordOf<StepAccum> auto& a) {
  io(a.dispatched_users);
  io(a.dispatched_freqs);
  io(a.resolved_users);
  io(a.resolved_freqs);
  io(a.resolved_completed);
  io(a.crashed);
  io(a.upload_failures);
  io(a.dropped_stale);
  io(a.retries);
  io(a.step_energy);
  io(a.step_wasted);
}

/// Smallest possible wire sizes, used to cap adversarial counts before
/// reserving.
constexpr std::size_t kMinDispatchBytes = 6 * 8 + 11 * 8 + 3 + 2 * 8;
constexpr std::size_t kMinBufferedBytes = 4 * 8 + 3 * 8 + 2 * 8;


void fields(auto&& io, util::RecordOf<AsyncState> auto& s) {
  io(s.model_version);
  io(s.step);
  io(s.next_dispatch_id);
  io(s.resolutions);
  io(s.effective_k);
  io(s.now);
  io(s.uplink_free);
  io(s.step_start);
  io(s.busy);
  io(s.queue);
  io(s.in_flight, kMinDispatchBytes, "in-flight clients");
  io(s.buffer, kMinBufferedBytes, "buffered updates", buffered_fields);
  fields(io, s.acc);
}

std::vector<AsyncDispatch>::iterator AsyncState::find_flight(std::uint64_t id) {
  const auto it = std::lower_bound(
      in_flight.begin(), in_flight.end(), id,
      [](const AsyncDispatch& d, std::uint64_t key) { return d.id < key; });
  return it != in_flight.end() && it->id == id ? it : in_flight.end();
}

std::vector<std::uint8_t> AsyncState::save() const { return util::to_bytes(*this); }

AsyncState AsyncState::load(std::span<const std::uint8_t> frame, std::size_t n_users) {
  AsyncState s;
  try {
    s = util::from_bytes<AsyncState>(frame, "checkpoint async state");
  } catch (const util::SerialError& error) {
    throw CheckpointError(std::string("async state is malformed: ") + error.what());
  }
  if (!std::isfinite(s.now) || !std::isfinite(s.uplink_free) ||
      !std::isfinite(s.step_start) || s.now < 0.0) {
    throw CheckpointError("async state holds a non-finite clock");
  }
  if (s.busy.size() != n_users) {
    throw CheckpointError("async state holds a busy mask for " +
                          std::to_string(s.busy.size()) + " users, expected " +
                          std::to_string(n_users));
  }
  for (std::size_t i = 0; i < s.in_flight.size(); ++i) {
    const AsyncDispatch& d = s.in_flight[i];
    if (d.user >= n_users) {
      throw CheckpointError("async state names in-flight user " +
                            std::to_string(d.user) + " of a " +
                            std::to_string(n_users) + "-user fleet");
    }
    if (!std::isfinite(d.dispatch_time_s) || !std::isfinite(d.out.energy_j)) {
      throw CheckpointError("async state holds a non-finite in-flight record");
    }
    if (d.id >= s.next_dispatch_id) {
      throw CheckpointError("async state holds an in-flight dispatch id " +
                            std::to_string(d.id) + " beyond the dispatch counter");
    }
    if (i > 0 && d.id <= s.in_flight[i - 1].id) {
      throw CheckpointError("async state repeats or misorders in-flight dispatch id " +
                            std::to_string(d.id));
    }
  }
  for (const AsyncDispatch& d : s.buffer) {
    if (d.user >= n_users) {
      throw CheckpointError("async state buffers an update from user " +
                            std::to_string(d.user) + " of a " +
                            std::to_string(n_users) + "-user fleet");
    }
  }
  const StepAccum& acc = s.acc;
  if (acc.resolved_users.size() != acc.resolved_freqs.size() ||
      acc.resolved_users.size() != acc.resolved_completed.size() ||
      acc.dispatched_users.size() != acc.dispatched_freqs.size()) {
    throw CheckpointError("async state step accumulators disagree in size");
  }
  // Every pending compute/upload/fault event must reference a live
  // in-flight dispatch; a dangling tag would fault mid-run.
  for (const Event& event : s.queue.sorted_events()) {
    if (event.kind != EventKind::kChurn &&
        s.find_flight(event.tag) == s.in_flight.end()) {
      throw CheckpointError("async state queues an event for unknown dispatch id " +
                            std::to_string(event.tag));
    }
  }
  return s;
}

}  // namespace helcfl::fl
