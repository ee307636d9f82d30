#include "mec/fading.h"

#include <cmath>
#include <stdexcept>

namespace helcfl::mec {

FadingProcess::FadingProcess(std::size_t n_devices, const FadingOptions& options,
                             util::Rng rng)
    : options_(options), rng_(rng) {
  if (options.rho < 0.0 || options.rho >= 1.0) {
    throw std::invalid_argument("FadingProcess: rho must be in [0, 1)");
  }
  if (options.sigma_db < 0.0) {
    throw std::invalid_argument("FadingProcess: sigma_db must be >= 0");
  }
  states_db_.resize(n_devices, 0.0);
  if (options_.enabled) {
    for (auto& state : states_db_) state = rng_.normal(0.0, options_.sigma_db);
  }
}

void FadingProcess::step() {
  if (!options_.enabled) return;
  const double innovation_scale =
      options_.sigma_db * std::sqrt(1.0 - options_.rho * options_.rho);
  for (auto& state : states_db_) {
    state = options_.rho * state + rng_.normal(0.0, innovation_scale);
  }
}

void FadingProcess::fields(auto&& io, util::RecordOf<FadingProcess> auto& p) {
  io.echo(p.options_.enabled, "FadingProcess enabled");
  io(p.rng_);
  io(p.states_db_);
}

void FadingProcess::save_state(util::ByteWriter& out) const {
  fields(util::Save(out), *this);
}

void FadingProcess::load_state(util::ByteReader& in) {
  FadingProcess fresh = *this;
  fields(util::Load(in), fresh);
  if (fresh.states_db_.size() != states_db_.size()) {
    throw util::SerialError("FadingProcess: device count mismatch in saved state");
  }
  *this = std::move(fresh);
}

double FadingProcess::multiplier(std::size_t i) const {
  if (!options_.enabled) return 1.0;
  return std::pow(10.0, states_db_.at(i) / 10.0);
}

}  // namespace helcfl::mec
