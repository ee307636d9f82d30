// The async engine's checkpoint record (DESIGN.md §16, docs/ASYNC.md): the
// whole state of fl::AsyncTrainer between two events, which a v3
// checkpoint stores as its async_state frame.  The layout is the fields()
// walks in async_state.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fl/event_queue.h"
#include "fl/round_stages.h"

namespace helcfl::fl {

/// Everything one dispatched client will produce, resolved when
/// its terminal event (upload finish or crash burn-out) pops.  The training
/// itself runs at dispatch time — only the *outcome* travels through the
/// event queue.  An accepted upload moves, as is, into the aggregation
/// buffer.
struct AsyncDispatch {
  std::uint64_t id = 0;          ///< dispatch counter; RNG/fault fork key
  std::size_t user = 0;
  std::size_t version = 0;       ///< model_version trained against
  double frequency_hz = 0.0;
  double dispatch_time_s = 0.0;
  double compute_end_s = 0.0;    ///< set when kComputeFinish pops
  double upload_start_s = 0.0;   ///< set at the TDMA grant
  /// The local round; update.weights holds the post-compression delta from
  /// the dispatch base.
  stages::ClientOutcome out;
  bool crashed = false;
  double crash_fraction = 0.0;
  double slowdown = 1.0;
  std::size_t failed_attempts = 0;
};

/// Per-server-step accumulators, reset at every aggregation.
struct StepAccum {
  std::vector<std::size_t> dispatched_users;
  std::vector<double> dispatched_freqs;
  std::vector<std::size_t> resolved_users;
  std::vector<double> resolved_freqs;
  /// 2 = arrival awaiting the step's quorum verdict; rewritten to 1/0 at
  /// aggregation time, when report_completion fires.
  std::vector<std::uint8_t> resolved_completed;
  std::size_t crashed = 0;
  std::size_t upload_failures = 0;
  std::size_t dropped_stale = 0;
  std::size_t retries = 0;
  double step_energy = 0.0;
  double step_wasted = 0.0;
};

/// The async engine's whole state between two events — what a v3
/// checkpoint's async_state frame snapshots.
struct AsyncState {
  std::size_t model_version = 0;  ///< quorum-met aggregations; staleness base
  std::size_t step = 0;           ///< all aggregations; the record "round"
  std::uint64_t next_dispatch_id = 0;
  std::uint64_t resolutions = 0;  ///< checkpoint-cadence counter
  std::size_t effective_k = 0;    ///< 0 until the first cohort fixes it
  double now = 0.0;               ///< global clock = cumulative delay; monotone
  double uplink_free = 0.0;       ///< rolling TDMA cursor
  double step_start = 0.0;
  std::vector<std::uint8_t> busy;
  EventQueue queue;
  /// Sorted by dispatch id (ids only grow, so appending keeps the order).
  std::vector<AsyncDispatch> in_flight;
  std::vector<AsyncDispatch> buffer;  ///< accepted uploads awaiting aggregation
  StepAccum acc;

  /// The in-flight dispatch with id `id`, or in_flight.end().
  std::vector<AsyncDispatch>::iterator find_flight(std::uint64_t id);

  /// The frame a v3 checkpoint stores as async_state.
  std::vector<std::uint8_t> save() const;

  /// Parses a save()d frame and validates it against an `n_users` fleet;
  /// throws CheckpointError on the first inconsistency.
  static AsyncState load(std::span<const std::uint8_t> frame, std::size_t n_users);
};

}  // namespace helcfl::fl
