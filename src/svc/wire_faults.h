// Transport-level fault injection for the scheduler service (DESIGN.md §13).
//
// The service's failure handling (frame rejection, retry/backoff, dedup,
// lease expiry) is only trustworthy if every failure path is exercised
// in-process, deterministically.  WireFaultInjector plans per-frame faults
// — drop, corrupt (single byte xor), duplicate, delay (which reorders) —
// from an RNG forked per frame, mirroring mec::FaultInjector's
// per-(round,user) streams: a frame's fate depends only on the seed and
// its send index, never on timing or on other frames.
//
// FaultyLink is a simplex datagram wire built on the injector: send()
// stamps each (possibly faulted) copy with a delivery tick, advance()
// releases everything due in deterministic (tick, send order) order.
// Logical ticks, never wall clock — tests and the loadgen own time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "util/rng.h"

namespace helcfl::svc {

/// Per-frame fault probabilities.  All rates in [0, 1].  The default is a
/// perfect wire (no RNG consumed, frames pass through byte-identical).
struct WireFaultOptions {
  double drop_rate = 0.0;       ///< P(frame vanishes entirely)
  double corrupt_rate = 0.0;    ///< P(one byte of a delivery is bit-flipped)
  double duplicate_rate = 0.0;  ///< P(a second copy is delivered too)
  double delay_rate = 0.0;      ///< P(a delivery is postponed 1..max ticks)
  std::uint64_t max_delay_ticks = 8;  ///< worst-case postponement

  /// Throws std::invalid_argument with an actionable message on bad knobs.
  void validate() const;

  /// True when any fault can actually trigger.
  bool any_fault_possible() const {
    return drop_rate > 0.0 || corrupt_rate > 0.0 || duplicate_rate > 0.0 ||
           delay_rate > 0.0;
  }
};

/// Deterministic per-frame fault planner.
class WireFaultInjector {
 public:
  /// Inert injector: every frame passes through untouched.
  WireFaultInjector() = default;

  /// `base` should be a stream forked off the harness seed; each frame's
  /// faults are drawn from base.fork(frame index).
  explicit WireFaultInjector(const WireFaultOptions& options, util::Rng base);

  /// One delivered copy of a frame.
  struct Delivery {
    std::uint64_t delay_ticks = 0;  ///< extra ticks before delivery
    bool corrupted = false;
    std::size_t corrupt_index = 0;  ///< byte to flip (mod frame size)
    std::uint8_t corrupt_mask = 0;  ///< non-zero xor mask
  };

  /// The full fate of one frame.
  struct Plan {
    bool dropped = false;
    std::size_t copies = 0;  ///< 0 when dropped, else 1 or 2
    Delivery delivery[2];
  };

  /// Plans the next frame's faults (advances the frame counter).  The draw
  /// order inside the forked stream is fixed, so plans are reproducible
  /// frame-for-frame from the seed.
  Plan plan_frame();

  const WireFaultOptions& options() const { return options_; }

 private:
  WireFaultOptions options_;
  util::Rng base_;  ///< parent of the per-frame forks; never advanced
  std::uint64_t frame_counter_ = 0;
};

/// Simplex datagram link with injected faults and logical-tick latency.
class FaultyLink {
 public:
  /// Perfect link: zero latency, no faults.
  FaultyLink() = default;

  explicit FaultyLink(WireFaultInjector injector)
      : injector_(std::move(injector)) {}

  /// Queues `frame` for delivery, applying the injector's plan (drop,
  /// corruption, duplication, delay) at `now_tick`.
  void send(std::span<const std::uint8_t> frame, std::uint64_t now_tick);

  /// Pops every datagram due at or before `now_tick`, in (due tick, send
  /// order) order — delay faults therefore reorder across frames.
  std::vector<std::vector<std::uint8_t>> advance(std::uint64_t now_tick);

  std::size_t in_flight() const { return queue_.size(); }

  // --- fault accounting (tests and the loadgen report these) -------------
  std::uint64_t frames_sent() const { return sent_; }
  std::uint64_t frames_dropped() const { return dropped_; }
  std::uint64_t frames_corrupted() const { return corrupted_; }
  std::uint64_t frames_duplicated() const { return duplicated_; }
  std::uint64_t frames_delayed() const { return delayed_; }

 private:
  struct InFlight {
    std::uint64_t due_tick = 0;
    std::uint64_t order = 0;  ///< global send-copy index (ties broken FIFO)
    std::vector<std::uint8_t> bytes;

    bool operator>(const InFlight& other) const {
      if (due_tick != other.due_tick) return due_tick > other.due_tick;
      return order > other.order;
    }
  };

  WireFaultInjector injector_;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> queue_;
  std::uint64_t next_order_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace helcfl::svc
