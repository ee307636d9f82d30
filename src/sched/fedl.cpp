#include "sched/fedl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace helcfl::sched {

FedlSelection::FedlSelection(double fraction, double kappa, util::Rng rng)
    : fraction_(fraction), kappa_(kappa), rng_(rng) {
  if (kappa <= 0.0) throw std::invalid_argument("FedlSelection: kappa must be > 0");
  capture_initial_state();
}

double FedlSelection::unconstrained_frequency(double kappa,
                                              double switched_capacitance) {
  return std::cbrt(kappa / switched_capacitance);
}

Decision FedlSelection::decide(const FleetView& fleet, std::size_t round) {
  const std::vector<std::size_t> alive = fleet.alive_indices();
  Decision decision;
  if (alive.empty()) return decision;
  const std::size_t n =
      std::min(selection_count(fleet.users.size(), fraction_), alive.size());
  for (const std::size_t pick : rng_.sample_without_replacement(alive.size(), n)) {
    decision.selected.push_back(alive[pick]);
  }
  obs::Tracer* tracer = instruments_.tracer;
  const bool trace_decisions =
      tracer != nullptr && tracer->enabled(obs::TraceLevel::kDecision);
  decision.frequencies_hz.reserve(n);
  for (std::size_t rank = 0; rank < decision.selected.size(); ++rank) {
    const std::size_t i = decision.selected[rank];
    const auto& device = fleet.users[i].device;
    const double f_star =
        unconstrained_frequency(kappa_, device.switched_capacitance);
    decision.frequencies_hz.push_back(device.clamp_frequency(f_star));
    // Decision telemetry: selection is uniform, the interesting signal is
    // the closed-form frequency and whether the DVFS range clamped it.
    if (trace_decisions) {
      tracer->emit(obs::TraceLevel::kDecision, "selection",
                   {{"round", round},
                    {"user", i},
                    {"rank", rank},
                    {"strategy", name()},
                    {"f_star_hz", f_star},
                    {"f_hz", decision.frequencies_hz.back()}});
    }
  }
  return decision;
}

void FedlSelection::fields(auto&& io, util::RecordOf<util::Rng> auto& rng) const {
  io.echo(fraction_, "FedlSelection fraction");
  io.echo(kappa_, "FedlSelection kappa");
  io(rng);
}

void FedlSelection::do_save_state(util::ByteWriter& out) const {
  fields(util::Save(out), rng_);
}

void FedlSelection::do_load_state(util::ByteReader& in) {
  util::Rng rng = rng_;
  fields(util::Load(in), rng);
  rng_ = rng;
}

}  // namespace helcfl::sched
