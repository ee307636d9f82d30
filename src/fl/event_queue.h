// Discrete-event core of the async round engine (DESIGN.md §16).
//
// The lockstep round loop of fl/trainer.cpp advances time one barrier at a
// time; the async engine (fl/async_trainer.h) instead advances a global
// clock event by event.  This queue is the single source of "what happens
// next": compute completions, TDMA upload completions, client faults, and
// availability churn all become timestamped events, totally ordered by
// (time_s, seq).  `seq` is assigned at push time and is unique, so the pop
// order is a *deterministic total order* — two events landing on the same
// instant resolve by insertion order, never by heap layout, thread timing,
// or pointer values.  That property is what lets the engine inherit the
// repo's bitwise-determinism contract (DESIGN.md §7) and what the sync
// degeneration proof in tests/test_async_differential.cpp rests on.
//
// Serialization is canonical: save_state() writes the events in pop order
// (not heap order), so two queues holding the same pending set produce the
// same bytes regardless of the push/pop history that built them, and a
// save → load → save round-trip is byte-identical.  load_state() parses and
// validates the full frame before mutating the queue (checkpoint
// discipline, docs/CHECKPOINT.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/serial.h"

namespace helcfl::fl {

/// What a queue entry describes.  The engine attaches meaning; the queue
/// only orders them.
enum class EventKind : std::uint8_t {
  kComputeFinish = 0,  ///< a client's local update completed
  kUploadFinish = 1,   ///< a client's TDMA upload (or final retry) ended
  kFault = 2,          ///< a client fault resolved (e.g. crash burn-out)
  kChurn = 3,          ///< an availability-churn boundary
};

/// Number of valid EventKind values (serialization bound check).
inline constexpr std::uint8_t kEventKindCount = 4;

/// One scheduled event.  `user`, `tag` and `value` are kind-specific
/// payload the engine interprets (device id, dispatch id, energy, ...).
struct Event {
  double time_s = 0.0;     ///< absolute simulation time
  std::uint64_t seq = 0;   ///< unique push order — the tie-break
  EventKind kind = EventKind::kComputeFinish;
  std::uint64_t user = 0;
  std::uint64_t tag = 0;
  double value = 0.0;

  /// The queue's total order: (time_s, seq) lexicographic.  seq is unique,
  /// so this is a strict total order (never "equal").
  bool before(const Event& other) const {
    if (time_s != other.time_s) return time_s < other.time_s;
    return seq < other.seq;
  }

  bool operator==(const Event&) const = default;
};

/// Deterministically ordered min-heap of events.
class EventQueue {
 public:
  /// Schedules an event and returns its assigned seq.  `time_s` must be
  /// finite and non-negative (NaN/inf would break the total order); throws
  /// std::invalid_argument otherwise.
  std::uint64_t push(double time_s, EventKind kind, std::uint64_t user,
                     std::uint64_t tag = 0, double value = 0.0);

  /// The earliest pending event.  Throws std::logic_error when empty.
  const Event& top() const;

  /// Removes and returns the earliest pending event.  Throws
  /// std::logic_error when empty.
  Event pop();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Drops every pending event.  The seq counter keeps advancing — seqs
  /// are never reused within one queue's lifetime.
  void clear() { heap_.clear(); }

  /// The seq the next push() will assign.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Pending events in pop order (the canonical order).  O(n log n);
  /// intended for serialization, tests, and debugging.
  std::vector<Event> sorted_events() const;

  /// Canonical serialization: next_seq, count, then every pending event in
  /// pop order.  Two queues with equal pending sets and next_seq produce
  /// identical bytes.
  void save_state(util::ByteWriter& out) const;

  /// Restores a frame written by save_state().  Validates everything —
  /// kind range, finite non-negative times, strictly increasing canonical
  /// order (which implies seq uniqueness), seq < next_seq — before
  /// mutating, so a throwing load leaves the queue unchanged.  Throws
  /// util::SerialError.
  void load_state(util::ByteReader& in);

 private:
  /// The frame: next_seq, then the pending events in pop order.
  static void fields(auto&& io, util::RecordOf<EventQueue> auto& q);

  std::vector<Event> heap_;  ///< std::*_heap with `later` as the comparator
  std::uint64_t next_seq_ = 0;
};

}  // namespace helcfl::fl
