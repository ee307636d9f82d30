// Classic FL baseline (McMahan et al. [9]): uniform random selection of
// Q*C users each round; everyone runs at maximum frequency.
#pragma once

#include "sched/scheduler.h"
#include "util/rng.h"

namespace helcfl::sched {

class RandomSelection : public SelectionStrategy {
 public:
  /// `fraction` is the user selection fraction C.
  RandomSelection(double fraction, util::Rng rng);

  Decision decide(const FleetView& fleet, std::size_t round) override;
  std::string name() const override { return "ClassicFL"; }

 protected:
  void do_save_state(util::ByteWriter& out) const override;
  void do_load_state(util::ByteReader& in) override;

 private:
  /// The payload: configuration echo, then the selection stream.
  void fields(auto&& io, util::RecordOf<util::Rng> auto& rng) const;

  double fraction_;
  util::Rng rng_;
};

}  // namespace helcfl::sched
