// Incremental Eq. (20) utility index: the persistent max-ordered structure
// behind Algorithm 2 (`GreedyDecaySelector`).
//
// The naive Algorithm 2 recomputes every user's utility and re-sorts all Q
// of them each round, O(Q log Q).  But between rounds only the ≤ N selected
// (line-18 α_q increment) and revoked users change their utility, and a
// delay report changes only the affected users' denominators — so the
// ordering is almost entirely reusable.  This index keeps one binary
// max-heap of (utility, user) entries with *lazy deletion*: a per-user
// version counter stamps every entry, any state change bumps the version
// and pushes a fresh entry, and stale entries are discarded when they
// surface at the top.  A round's pick is then O((N + stale) log Q) pops
// plus an O(Q) branch-light delay-verification sweep; the heap is
// compacted back to Q live entries whenever lazy garbage doubles its size,
// which amortizes to O(1) per push.
//
// Ordering contract (must match the retained reference selector exactly,
// see DESIGN.md §12): entries are ordered by (utility descending, user
// index ascending), where utility is the *bit-exact* double produced by
// core::utility().  This reproduces std::stable_sort over an ascending
// index array with a `utility >` comparator — including the η = 1 and
// η^α_q-underflow regimes where ties are pervasive.
//
// Depleted/absent users (FleetView alive mask) are handled by *parking*:
// a dead user's entry is removed when it surfaces during extraction and
// the user is re-inserted by the next round prologue that sees it alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sched/scheduler.h"
#include "util/serial.h"

namespace helcfl::core {

class UtilityIndex {
 public:
  /// `eta` is the Eq. (20) decay coefficient, in (0, 1].
  explicit UtilityIndex(double eta);

  /// One extracted candidate: the user and the bit-exact Eq. (20) utility
  /// its ranking used.
  struct Pick {
    std::size_t user = 0;
    double utility = 0.0;
  };

  /// Whether build()/load() has populated the delay cache and heap.
  bool initialized() const { return initialized_; }

  /// Number of indexed users (0 before build()).
  std::size_t size() const { return t_cal_.size(); }

  /// Builds the index from scratch: caches every user's (T^cal_max, T^com),
  /// computes utilities from `counters`, and heapifies.  O(Q).
  void build(std::span<const sched::UserInfo> users,
             std::span<const std::size_t> counters);

  /// Returns to the uninitialized state (selector reset / fleet re-pin).
  void clear();

  /// Round prologue: verifies the cached delays against the fleet (an O(Q)
  /// compare-only sweep; each changed user is refreshed in O(log Q)) and
  /// re-inserts parked users that are alive again.  Compacts the heap when
  /// lazy-deletion garbage has doubled it.
  void begin_round(const sched::FleetView& fleet,
                   std::span<const std::size_t> counters);

  /// Pops the top `n` alive users in (utility desc, index asc) order into
  /// `out` (cleared first).  Requires n <= alive count.  The extracted
  /// users' entries leave the heap: the caller must re-insert each one via
  /// update_counter() (with its post-round α_q) before the next
  /// begin_round()/extract_top() — GreedyDecaySelector does exactly that.
  void extract_top(const sched::FleetView& fleet, std::size_t n,
                   std::vector<Pick>& out);

  /// α_q changed for `user` (line-18 increment, revocation): re-inserts it
  /// with the utility of the new counter value.  O(log Q).
  void update_counter(std::size_t user, std::size_t alpha);

  /// Deterministic serialization of the *logical* state: the initialized
  /// flag and the delay cache.  Heap layout, versions, and parking are
  /// deliberately excluded — load() rebuilds them canonically — so the
  /// bytes are a pure function of (counters, delays) and save→load→save
  /// is byte-identical.
  void save(util::ByteWriter& out) const;

  /// Restores a save()d index; `counters` supplies the α_q values the
  /// rebuilt utilities use (the selector owns them).  Parses and validates
  /// everything before mutating any member; throws util::SerialError on a
  /// size mismatch or a non-positive cached delay.
  void load(util::ByteReader& in, std::span<const std::size_t> counters);

  /// The save() frame: initialized flag, then (if set) the delay cache.
  static void fields(auto&& io, util::RecordOf<UtilityIndex> auto& index) {
    io(index.initialized_);
    if (!index.initialized_) return;
    io(index.t_cal_);
    io(index.t_com_);
  }

  /// Finishes a fields() load: validates the delay cache against
  /// `counters` and rebuilds the heap canonically, as load() does.
  void rebuild(std::span<const std::size_t> counters);

  // --- incrementality audit (tests and benches) ---------------------------
  std::size_t heap_entries() const { return heap_.size(); }
  std::uint64_t stale_discards() const { return stale_discards_; }
  std::uint64_t delay_refreshes() const { return delay_refreshes_; }
  std::uint64_t compactions() const { return compactions_; }

 private:
  struct Entry {
    double utility = 0.0;
    std::uint64_t version = 0;  ///< stale iff != versions_[user]
    std::uint32_t user = 0;
  };

  /// Max-heap "less" (std::push_heap orders the *largest* first): a is
  /// outranked by b iff b has higher utility, or equal utility and a
  /// lower index.  Strict weak ordering; equal (utility, user) pairs can
  /// only be one fresh + stale duplicates, which extraction discards.
  static bool outranked(const Entry& a, const Entry& b) {
    if (a.utility != b.utility) return a.utility < b.utility;
    return a.user > b.user;
  }

  /// Bumps the user's version and pushes its current-utility entry;
  /// un-parks it if parked.
  void push_fresh(std::size_t user, std::size_t alpha);

  /// Drops lazy-deletion garbage: rebuilds the heap with exactly one
  /// fresh entry per non-parked user, in ascending user order.  O(Q).
  void compact(std::span<const std::size_t> counters);

  double eta_;
  bool initialized_ = false;
  std::vector<double> t_cal_;  ///< cached T^cal at f_max per user
  std::vector<double> t_com_;  ///< cached T^com per user
  std::vector<std::uint64_t> versions_;
  std::vector<std::uint8_t> parked_;   ///< 1 = no live heap entry (was dead)
  std::vector<std::uint32_t> parked_list_;  ///< users with parked_ == 1
  std::vector<Entry> heap_;  ///< std::*_heap-managed, outranked() order

  std::uint64_t stale_discards_ = 0;
  std::uint64_t delay_refreshes_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace helcfl::core
