// FEDL baseline (Tran et al. [12]): Classic-FL random selection combined
// with a closed-form per-device frequency that balances computation energy
// against delay.
//
// Per device, FEDL trades E^cal = alpha/2 * pi*|D| * f^2 against the delay
// cost kappa * T^cal = kappa * pi*|D| / f.  Minimizing
//   alpha/2 * pi*|D| * f^2 + kappa * pi*|D| / f
// over f gives d/df = alpha * pi*|D| * f - kappa * pi*|D| / f^2 = 0, i.e.
//   f* = (kappa / alpha)^(1/3),
// clamped into the device's DVFS range.  This is the closed-form
// delay/energy balance the paper attributes to FEDL; its user selection is
// the same as Classic FL (Section VII-B: "FEDL takes the same user
// selection method as Classic FL").
#pragma once

#include "sched/scheduler.h"
#include "util/rng.h"

namespace helcfl::sched {

class FedlSelection : public SelectionStrategy {
 public:
  /// `kappa` is the delay weight (J/s); larger kappa pushes devices toward
  /// f_max.  Default 0.2 puts f* = 1 GHz for the paper's alpha = 2e-28.
  FedlSelection(double fraction, double kappa, util::Rng rng);

  Decision decide(const FleetView& fleet, std::size_t round) override;
  std::string name() const override { return "FEDL"; }

  /// The closed-form optimum before clamping.
  static double unconstrained_frequency(double kappa, double switched_capacitance);

 protected:
  void do_save_state(util::ByteWriter& out) const override;
  void do_load_state(util::ByteReader& in) override;

 private:
  /// The payload: configuration echo, then the selection stream.
  void fields(auto&& io, util::RecordOf<util::Rng> auto& rng) const;

  double fraction_;
  double kappa_;
  util::Rng rng_;
};

}  // namespace helcfl::sched
