#include "sched/random_selection.h"

#include <algorithm>

#include "obs/trace.h"

namespace helcfl::sched {

RandomSelection::RandomSelection(double fraction, util::Rng rng)
    : fraction_(fraction), rng_(rng) {
  capture_initial_state();
}

Decision RandomSelection::decide(const FleetView& fleet, std::size_t round) {
  const std::vector<std::size_t> alive = fleet.alive_indices();
  Decision decision;
  if (alive.empty()) return decision;
  const std::size_t n =
      std::min(selection_count(fleet.users.size(), fraction_), alive.size());
  for (const std::size_t pick : rng_.sample_without_replacement(alive.size(), n)) {
    decision.selected.push_back(alive[pick]);
  }
  decision.frequencies_hz.reserve(n);
  for (const std::size_t i : decision.selected) {
    decision.frequencies_hz.push_back(fleet.users[i].device.f_max_hz);
  }
  // Uniform draws carry no ranking signal; the trace still records who was
  // picked so runs are comparable across strategies.
  if (obs::Tracer* tracer = instruments_.tracer;
      tracer != nullptr && tracer->enabled(obs::TraceLevel::kDecision)) {
    for (std::size_t rank = 0; rank < decision.selected.size(); ++rank) {
      tracer->emit(obs::TraceLevel::kDecision, "selection",
                   {{"round", round},
                    {"user", decision.selected[rank]},
                    {"rank", rank},
                    {"strategy", name()}});
    }
  }
  return decision;
}

void RandomSelection::fields(auto&& io, util::RecordOf<util::Rng> auto& rng) const {
  io.echo(fraction_, "RandomSelection fraction");
  io(rng);
}

void RandomSelection::do_save_state(util::ByteWriter& out) const {
  fields(util::Save(out), rng_);
}

void RandomSelection::do_load_state(util::ByteReader& in) {
  util::Rng rng = rng_;
  fields(util::Load(in), rng);
  rng_ = rng;
}

}  // namespace helcfl::sched
