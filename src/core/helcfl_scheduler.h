// The HELCFL scheduler: Algorithm 2 (greedy-decay selection) followed by
// Algorithm 3 (DVFS frequency determination), exposed through the common
// SelectionStrategy interface so Algorithm 1 can drive it like any
// baseline.
#pragma once

#include "core/greedy_decay_selection.h"
#include "sched/scheduler.h"

namespace helcfl::core {

struct HelcflOptions {
  double fraction = 0.1;  ///< user selection fraction C
  double eta = 0.9;       ///< decay coefficient of Eq. (20)
  bool enable_dvfs = true;  ///< false = run selected users at f_max
                            ///< (the "w/o DVFS" arm of Fig. 3)
};

class HelcflScheduler : public sched::SelectionStrategy {
 public:
  explicit HelcflScheduler(const HelcflOptions& options);

  sched::Decision decide(const sched::FleetView& fleet, std::size_t round) override;
  /// Failure-aware correction: Algorithm 2 increments α_q at selection
  /// time, but a client whose update never entered the model contributed
  /// no data, so its appearance (and thus its Eq.-(20) utility decay) is
  /// revoked here.
  void report_completion(std::size_t round, const sched::Decision& decision,
                         std::span<const std::uint8_t> completed) override;
  std::string name() const override;

  const GreedyDecaySelector& selector() const { return selector_; }
  const HelcflOptions& options() const { return options_; }

 protected:
  void do_save_state(util::ByteWriter& out) const override;
  void do_load_state(util::ByteReader& in) override;

 private:
  /// The payload: configuration echo, then the selector's frame.
  void fields(auto&& io, util::RecordOf<GreedyDecaySelector> auto& selector) const;

  HelcflOptions options_;
  GreedyDecaySelector selector_;
};

}  // namespace helcfl::core
