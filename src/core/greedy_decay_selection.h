// Algorithm 2: greedy-decay heuristic user selection.
//
// Maintains an appearance counter per user across rounds and greedily takes
// the top N = max(Q*C, 1) users by Eq. (20) utility, incrementing the
// counters of those selected.  Since PR 6 the ranking runs on an
// incremental utility index (core::UtilityIndex): instead of recomputing
// and re-sorting all Q utilities each round (O(Q log Q)), the selector
// keeps a persistent lazy-deletion max-heap that only the ≤ N changed users
// touch, making a round O(N log Q) plus an O(Q) delay-verification sweep.
// The selection it produces is pick-for-pick, rank-for-rank, and
// utility-bit-for-bit identical to the retained naive implementation
// (core::GreedyDecayReference, a test oracle in tests/oracles/) — proven by
// the differential harness in tests/test_selection_differential.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/utility_index.h"
#include "sched/scheduler.h"
#include "util/serial.h"

namespace helcfl::core {

/// Decision-time telemetry of one selected user: why Algorithm 2 took it
/// this round.  Captured *at* the decision (α_q before its increment), so
/// a trace consumer can recompute the Eq. (20) ranking exactly.
struct SelectionTraceEntry {
  std::size_t user = 0;         ///< index into FleetView::users
  std::size_t rank = 0;         ///< 0 = highest utility this round
  double utility = 0.0;         ///< u_q = η^α_q / (T^cal_max + T^com), Eq. (20)
  std::size_t appearances = 0;  ///< α_q at decision time (pre-increment)
};

class GreedyDecaySelector {
 public:
  /// `fraction` is the user selection fraction C; `eta` the decay
  /// coefficient of Eq. (20).  η = 1 is permitted: it disables decay
  /// (pure fastest-first selection, the tie-heavy degenerate regime).
  GreedyDecaySelector(double fraction, double eta);

  /// Selects the round's user set and updates the appearance counters
  /// (Algorithm 2 lines 8-19).  Counters are lazily sized to the fleet on
  /// first call; the fleet size must not change across calls.  When
  /// `trace` is non-null it is filled with one entry per selected user in
  /// rank order — pure observation, the selection itself is unchanged.
  std::vector<std::size_t> select(const sched::FleetView& fleet,
                                  std::vector<SelectionTraceEntry>* trace = nullptr);

  /// Appearance counters alpha_q (empty before the first select()).
  std::span<const std::size_t> appearance_counts() const { return counters_; }

  /// Reverts the appearance increment of one selected user (failure-aware
  /// execution: a crashed/dropped client's data never entered the model, so
  /// its Eq.-(20) utility must not decay).  No-op if the counter is 0.
  void revoke_appearance(std::size_t user);

  /// Clears all counters and the utility index (start of a fresh run).
  void reset();

  /// Replaces the counters wholesale (checkpoint resume).  An empty vector
  /// returns the selector to its pre-first-select() state; a non-empty one
  /// pins the fleet size, so the next select() must see exactly
  /// `counters.size()` users.  The utility index is dropped and rebuilt
  /// lazily on the next select().
  void restore_appearance_counts(std::vector<std::size_t> counters);

  /// Serializes the mutable state: the appearance counters followed by the
  /// index frame (initialized flag + delay cache).  Deterministic — a pure
  /// function of the logical state, independent of heap layout.
  void save_state(util::ByteWriter& out) const;

  /// Restores state written by save_state().  Parses and validates the
  /// whole frame before mutating any member; throws util::SerialError on a
  /// malformed frame and leaves the selector unchanged.
  void load_state(util::ByteReader& in);

  /// The live utility index (uninitialized before the first select()) —
  /// read-only introspection for tests and benches.
  const UtilityIndex& index() const { return index_; }

  double fraction() const { return fraction_; }
  double eta() const { return eta_; }

 private:
  /// The frame: appearance counters, then the index frame.
  static void fields(auto&& io, util::RecordOf<GreedyDecaySelector> auto& s);

  double fraction_;
  double eta_;
  std::vector<std::size_t> counters_;
  UtilityIndex index_;
  std::vector<UtilityIndex::Pick> picks_;  ///< round scratch, no steady-state alloc
};

}  // namespace helcfl::core
