// Oort-like loss-aware selection (extension; see DESIGN.md §6).
//
// Oort (Lai et al., OSDI 2021) ranks clients by the product of a
// *statistical utility* (how informative their data currently is — proxied
// by their last observed training loss) and a *system utility* (a penalty
// for clients slower than a target round duration).  The reproduction
// bands note that HELCFL's selection is "Oort-like"; this strategy makes
// the comparison concrete on our substrate:
//
//   u_q = stat_q * min(1, (T_pref / T_q))^alpha,
//   stat_q = |D_q| * last_loss_q   (initially optimistic: unexplored users
//                                   carry the maximum observed loss)
//
// with epsilon-greedy exploration so unexplored or long-unseen users keep
// entering the pool.
#pragma once

#include <cstddef>
#include <vector>

#include "sched/scheduler.h"
#include "util/rng.h"

namespace helcfl::sched {

struct OortOptions {
  double fraction = 0.1;       ///< user selection fraction C
  double alpha = 2.0;          ///< system-penalty exponent
  double explore_ratio = 0.2;  ///< fraction of each cohort drawn at random
  /// Preferred round duration T_pref; <= 0 = auto (median user delay at
  /// f_max, resolved on the first decide()).
  double preferred_duration_s = 0.0;
};

class OortSelection : public SelectionStrategy {
 public:
  OortSelection(const OortOptions& options, util::Rng rng);

  Decision decide(const FleetView& fleet, std::size_t round) override;
  void observe(std::size_t round, const Decision& decision,
               std::span<const double> client_losses) override;
  /// Reliability feedback: the trainer filters observe() down to clients
  /// whose updates entered the model, so a crashed client stays unexplored
  /// (optimism prior intact).  Here each consecutive miss additionally
  /// halves the client's utility — real Oort's blacklist, softened — and a
  /// completed round clears the penalty.
  void report_completion(std::size_t round, const Decision& decision,
                         std::span<const std::uint8_t> completed) override;
  std::string name() const override { return "Oort"; }

  /// The statistical utility the strategy currently assigns to `user`.
  double statistical_utility(std::size_t user) const;

  /// Multiplier in (0, 1] applied to `user`'s total utility: 2^-misses for
  /// `misses` consecutive failed participations.
  double reliability_multiplier(std::size_t user) const;

 protected:
  void do_save_state(util::ByteWriter& out) const override;
  void do_load_state(util::ByteReader& in) override;

 private:
  /// Everything decide()/observe() carry across rounds.
  struct State {
    util::Rng rng;
    double resolved_t_pref = 0.0;
    double max_seen_loss = 1.0;         ///< optimism prior for unexplored users
    std::vector<double> last_loss;      ///< most recent observed loss per user
    std::vector<std::uint8_t> explored; ///< 1 = the user has been selected
    std::vector<std::size_t> failure_streaks;  ///< consecutive missed rounds
  };

  /// The payload: configuration echo, then `state`.
  void fields(auto&& io, util::RecordOf<State> auto& state) const;

  OortOptions options_;
  State state_;
};

}  // namespace helcfl::sched
