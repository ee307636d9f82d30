// FedCS baseline (Nishio & Yonetani [10]): deadline-constrained greedy
// selection of as many *fast* users as fit into a per-round deadline.
//
// The original FedCS solves a knapsack-flavoured maximization of the user
// count under the round deadline; we reproduce its published greedy
// heuristic: scan candidates in ascending order of their marginal round
// time and admit every user that keeps the estimated TDMA round time within
// the deadline.  All admitted users run at maximum frequency.
#pragma once

#include <vector>

#include "sched/scheduler.h"

namespace helcfl::sched {

class FedCsSelection : public SelectionStrategy {
 public:
  /// `deadline_s` is the per-round time budget T_round.  `max_fraction`
  /// bounds the admitted user count at selection_count(Q, max_fraction)
  /// so FedCS competes with the other schemes under the same uplink budget
  /// (<= 0 disables the bound).
  explicit FedCsSelection(double deadline_s, double max_fraction = 0.0);

  Decision decide(const FleetView& fleet, std::size_t round) override;
  /// Failure-aware deadline set: FedCS admits by estimated delay, so a
  /// client that keeps missing the round (crash, lost upload, straggling
  /// past the cutoff) has a stale estimate.  Each consecutive failure
  /// inflates the client's ranking delay (doubling per miss), pushing it
  /// behind candidates that actually deliver; a completed round clears the
  /// streak.  With no failures every streak is 0 and decide() is unchanged.
  void report_completion(std::size_t round, const Decision& decision,
                         std::span<const std::uint8_t> completed) override;
  std::string name() const override { return "FedCS"; }

  double deadline_s() const { return deadline_s_; }

  /// Consecutive missed rounds of `user` (0 = last participation worked).
  std::size_t failure_streak(std::size_t user) const {
    return user < failure_streaks_.size() ? failure_streaks_[user] : 0;
  }

 protected:
  void do_save_state(util::ByteWriter& out) const override;
  void do_load_state(util::ByteReader& in) override;

 private:
  /// The payload: configuration echo, then the failure streaks.
  void fields(auto&& io, util::RecordOf<std::vector<std::size_t>> auto& streaks) const;

  double deadline_s_;
  double max_fraction_;
  std::vector<std::size_t> failure_streaks_;
};

/// Estimated TDMA round time if exactly `members` participate at f_max:
/// compute in parallel, upload serially in compute-completion order.
double estimate_round_time(const FleetView& fleet,
                           std::span<const std::size_t> members);

}  // namespace helcfl::sched
